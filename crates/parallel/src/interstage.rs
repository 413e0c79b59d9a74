//! Inter-stage optimizer: Alpa's inter-operator dynamic program.
//!
//! Finds the contiguous layer partition, sub-mesh assignment, and
//! per-stage configuration minimizing the Eqn. 4 pipeline latency
//! `Σ tᵢ + (B−1)·max tⱼ` subject to the cluster's device budget.
//!
//! The max-term makes a direct DP non-Markovian, so we use Alpa's
//! enumeration: for every candidate bottleneck latency `t_max` (every
//! distinct stage latency), run a DP that minimizes `Σ tᵢ` using only
//! stages with `tᵢ ≤ t_max`, then pick the `t_max` whose
//! `Σ + (B−1)·t_max` is smallest.
//!
//! This module holds the two pure phases of the search.
//! [`enumerate_candidates`] builds the complete candidate work-list —
//! every (layer-range, sub-mesh, configuration) triple surviving the
//! imbalance filter — in a deterministic order, and [`solve_pipeline`]
//! runs the DP over that list once each candidate carries a latency.
//! Evaluating the list is the caller's job: `predtop-core`'s search
//! engine resolves it as one query batch through a `predtop-service`
//! stack, whose `Batched` layer lands each reply at its candidate's
//! index, so the table — and the plan — are bit-identical at any thread
//! count. With the ground-truth profiler as the source this *is* "full
//! profiling", and the imbalance filter reproduces vanilla Alpa's
//! "partial profiling" stage-device heuristic, so the Fig. 10
//! optimization-cost comparison falls directly out of these two phases.

use predtop_models::{ModelSpec, StageSpec};

use crate::config::{table3_configs, MeshShape, ParallelConfig};
use crate::plan::{PipelinePlan, PlannedStage};

/// Options controlling the inter-stage search.
#[derive(Debug, Clone, Copy)]
pub struct InterStageOptions {
    /// Number of micro-batches `B` in Eqn. 4.
    pub microbatches: usize,
    /// Vanilla Alpa's partial-profiling heuristic: only consider
    /// candidates where `|stage_layers/total_layers −
    /// stage_devices/total_devices| ≤ tol`. `None` = full profiling of
    /// every candidate.
    pub imbalance_tolerance: Option<f64>,
}

impl Default for InterStageOptions {
    fn default() -> Self {
        InterStageOptions {
            microbatches: 8,
            imbalance_tolerance: None,
        }
    }
}

/// One profiled/predicted candidate: layers `start..end` on `mesh` under
/// `config`, with its evaluated latency.
///
/// This is the row format of the evaluated candidate table: however the
/// latencies were produced, [`solve_pipeline`] only sees this table —
/// which is what keeps every evaluation path bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct EvaluatedCandidate {
    /// Layer range of the candidate stage.
    pub stage: StageSpec,
    /// Sub-mesh the stage would run on.
    pub mesh: MeshShape,
    /// Intra-stage parallelism configuration.
    pub config: ParallelConfig,
    /// Evaluated latency (seconds, forward+backward of one micro-batch).
    pub seconds: f64,
}

/// Sub-mesh shapes considered inside `cluster`: power-of-two slices that
/// stay within a node where possible, plus power-of-two multiples of
/// whole nodes up to the full cluster.
pub fn candidate_submeshes(cluster: MeshShape) -> Vec<MeshShape> {
    let mut out = Vec::new();
    let mut g = 1;
    while g <= cluster.gpus_per_node {
        out.push(MeshShape::new(1, g));
        g *= 2;
    }
    let mut n = 2;
    while n <= cluster.nodes {
        out.push(MeshShape::new(n, cluster.gpus_per_node));
        n *= 2;
    }
    out
}

/// The complete candidate work-list for `model` on `cluster`, in the
/// search's canonical order (sub-mesh, then stage start, then stage end,
/// then configuration).
///
/// The order is part of the determinism contract: the search evaluates
/// this list with results landing at fixed indices, so as long as the
/// list is reproducible the whole search is, at any thread count. The
/// list also *defines* the query count — an unchecked search issues
/// exactly one latency query per entry.
pub fn enumerate_candidates(
    model: ModelSpec,
    cluster: MeshShape,
    opts: InterStageOptions,
) -> Vec<(StageSpec, MeshShape, ParallelConfig)> {
    let layers = model.num_layers;
    let total_dev = cluster.num_devices();
    let mut out = Vec::new();
    for mesh in candidate_submeshes(cluster) {
        let dev_frac = mesh.num_devices() as f64 / total_dev as f64;
        for start in 0..layers {
            for end in start + 1..=layers {
                if let Some(tol) = opts.imbalance_tolerance {
                    let size_frac = (end - start) as f64 / layers as f64;
                    if (size_frac - dev_frac).abs() > tol {
                        continue;
                    }
                }
                let stage = StageSpec::new(model, start, end);
                for config in table3_configs(mesh) {
                    out.push((stage, mesh, config));
                }
            }
        }
    }
    out
}

/// Alpa's `t_max` enumeration + sum-minimizing DP over an
/// already-evaluated candidate table.
///
/// `layers` is the model's layer count every plan must cover and
/// `total_dev` the cluster device budget. Returns the optimal Eqn. 4
/// latency and plan, or `None` if no covering partition exists within
/// the budget. Purely a function of the table (candidate order included,
/// for tie-breaking) — identical tables give bit-identical plans.
pub fn solve_pipeline(
    cands: &[EvaluatedCandidate],
    layers: usize,
    total_dev: usize,
    microbatches: usize,
) -> Option<(f64, PipelinePlan)> {
    let mut tmax_set: Vec<f64> = cands.iter().map(|c| c.seconds).collect();
    tmax_set.sort_by(f64::total_cmp);
    tmax_set.dedup();
    // the candidates ending at each layer, in ascending table order
    let mut by_end: Vec<Vec<usize>> = vec![Vec::new(); layers + 1];
    for (ci, c) in cands.iter().enumerate() {
        if (1..=layers).contains(&c.stage.end) {
            by_end[c.stage.end].push(ci);
        }
    }
    // with no negative latency every sum is ≥ 0, so a total is never
    // below its `(B − 1)·t_max` term, which only grows along the
    // ascending set: once that term reaches the best total, no later
    // `t_max` can beat it
    let nonnegative = tmax_set.first().is_some_and(|&t| t >= 0.0);
    let skew = microbatches as f64 - 1.0;

    let mut best: Option<(f64, PipelinePlan)> = None;
    for &tmax in &tmax_set {
        if nonnegative && best.as_ref().is_some_and(|(b, _)| skew * tmax >= *b) {
            break;
        }
        if let Some((sum, plan)) = dp_min_sum(cands, &by_end, total_dev, tmax, microbatches) {
            let total = sum + skew * tmax;
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, plan));
            }
        }
    }
    best
}

/// DP minimizing the stage-latency sum for a fixed bottleneck bound:
/// `f[l][d]` = min Σ tᵢ covering layers `0..l` with exactly `d` devices,
/// using only candidates with `t ≤ tmax`. `by_end[l]` lists the indices
/// of the candidates ending at layer `l` in ascending order, so updates
/// and ties run in table order. Returns the best plan over all
/// `d ≤ total_dev`.
fn dp_min_sum(
    cands: &[EvaluatedCandidate],
    by_end: &[Vec<usize>],
    total_dev: usize,
    tmax: f64,
    microbatches: usize,
) -> Option<(f64, PipelinePlan)> {
    let layers = by_end.len() - 1;
    const INF: f64 = f64::INFINITY;
    let width = total_dev + 1;
    let mut f = vec![INF; (layers + 1) * width];
    // parent[end][d] = candidate index used for the stage ending at `end`
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; (layers + 1) * width];
    let mut cand_at: Vec<usize> = vec![usize::MAX; (layers + 1) * width];
    f[0] = 0.0;

    // Process in order of stage end so that f[start][*] is final before
    // any candidate ending later reads it.
    for (end, group) in by_end.iter().enumerate().skip(1) {
        for &ci in group {
            let c = &cands[ci];
            if c.seconds > tmax {
                continue;
            }
            let dev = c.mesh.num_devices();
            for d_prev in 0..width - dev {
                let prev = f[c.stage.start * width + d_prev];
                if prev == INF {
                    continue;
                }
                let idx = end * width + d_prev + dev;
                if prev + c.seconds < f[idx] {
                    f[idx] = prev + c.seconds;
                    parent[idx] = Some((c.stage.start, d_prev));
                    cand_at[idx] = ci;
                }
            }
        }
    }

    // best over device usage
    let (mut best_d, mut best_sum) = (0, INF);
    for d in 1..width {
        let v = f[layers * width + d];
        if v < best_sum {
            best_sum = v;
            best_d = d;
        }
    }
    if best_sum == INF {
        return None;
    }

    // reconstruct
    let mut stages_rev: Vec<PlannedStage> = Vec::new();
    let (mut end, mut d) = (layers, best_d);
    while end > 0 {
        let idx = end * width + d;
        let ci = cand_at[idx];
        let c = &cands[ci];
        stages_rev.push(PlannedStage {
            stage: c.stage,
            mesh: c.mesh,
            config: c.config,
        });
        let (pstart, pd) = parent[idx].expect("parent chain intact");
        end = pstart;
        d = pd;
    }
    stages_rev.reverse();
    Some((
        best_sum,
        PipelinePlan {
            stages: stages_rev,
            microbatches,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageLatencyProvider;
    use proptest::prelude::*;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.num_layers = 8;
        s
    }

    /// What the DP tests read back from one search.
    struct Optimized {
        plan: PipelinePlan,
        latency: f64,
        num_queries: usize,
    }

    /// The search with `provider` as the source: evaluate every
    /// enumerated candidate once, serially, then solve the DP.
    fn optimize<P: StageLatencyProvider>(
        model: ModelSpec,
        cluster: MeshShape,
        provider: &P,
        opts: InterStageOptions,
    ) -> Optimized {
        let cands: Vec<EvaluatedCandidate> = enumerate_candidates(model, cluster, opts)
            .into_iter()
            .map(|(stage, mesh, config)| EvaluatedCandidate {
                stage,
                mesh,
                config,
                seconds: provider.stage_latency(&stage, mesh, config),
            })
            .collect();
        let (latency, plan) = solve_pipeline(
            &cands,
            model.num_layers,
            cluster.num_devices(),
            opts.microbatches,
        )
        .expect("the single full-mesh stage always covers the model");
        Optimized {
            plan,
            latency,
            num_queries: cands.len(),
        }
    }

    /// Latency model with a deliberate shape: per-layer cost shrinks with
    /// devices but MP pays overhead; embedding/head stages are heavier.
    struct SynthLat;
    impl StageLatencyProvider for SynthLat {
        fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
            let mut work = stage.num_layers() as f64;
            if stage.has_embedding() {
                work += 1.5;
            }
            if stage.has_head() {
                work += 2.0;
            }
            let speedup = config.num_devices() as f64;
            let mp_overhead = 1.0 + 0.15 * (config.mp as f64 - 1.0);
            let cross_node = if mesh.nodes > 1 { 1.2 } else { 1.0 };
            work / speedup * mp_overhead * cross_node * 0.01
        }
    }

    #[test]
    fn finds_valid_optimal_plan() {
        let m = tiny_model();
        let r = optimize(
            m,
            MeshShape::new(2, 2),
            &SynthLat,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: None,
            },
        );
        r.plan.validate(&m).unwrap();
        assert!(r.plan.devices_used() <= 4);
        assert!(r.latency > 0.0);
        assert!(r.num_queries > 0);
        // the plan's Eqn. 4 latency recomputed from the provider must
        // match the DP's reported optimum
        let recomputed = r.plan.latency(&SynthLat);
        assert!((recomputed - r.latency).abs() < 1e-12);
    }

    #[test]
    fn partial_profiling_queries_fewer_candidates() {
        let m = tiny_model();
        let full = optimize(
            m,
            MeshShape::new(2, 2),
            &SynthLat,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: None,
            },
        );
        let partial = optimize(
            m,
            MeshShape::new(2, 2),
            &SynthLat,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: Some(0.25),
            },
        );
        assert!(partial.num_queries < full.num_queries);
        // partial profiling can only do as well or worse
        assert!(partial.latency >= full.latency - 1e-12);
        partial.plan.validate(&m).unwrap();
    }

    #[test]
    fn optimum_beats_random_plans() {
        let m = tiny_model();
        let opt = optimize(
            m,
            MeshShape::new(2, 2),
            &SynthLat,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: None,
            },
        );
        for seed in 0..30 {
            let rp = crate::plan::random_plan(m, MeshShape::new(2, 2), 4, seed);
            assert!(
                opt.latency <= rp.latency(&SynthLat) + 1e-12,
                "random plan (seed {seed}) beat the optimum"
            );
        }
    }

    /// Provider that marks some candidates infeasible (OOM semantics).
    struct OomLat;
    impl StageLatencyProvider for OomLat {
        fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
            // single-device execution of more than 3 layers "OOMs"
            if config.num_devices() == 1 && stage.num_layers() > 3 {
                return f64::INFINITY;
            }
            SynthLat.stage_latency(stage, mesh, config)
        }
    }

    #[test]
    fn infinite_candidates_are_never_selected() {
        let m = tiny_model(); // 8 layers
        let r = optimize(
            m,
            MeshShape::new(2, 2),
            &OomLat,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: None,
            },
        );
        r.plan.validate(&m).unwrap();
        assert!(r.latency.is_finite());
        for ps in &r.plan.stages {
            assert!(
                !(ps.mesh.num_devices() == 1 && ps.stage.num_layers() > 3),
                "picked an OOM stage: {ps:?}"
            );
        }
    }

    #[test]
    fn single_device_cluster_yields_single_stage() {
        let m = tiny_model();
        let r = optimize(
            m,
            MeshShape::new(1, 1),
            &SynthLat,
            InterStageOptions {
                microbatches: 2,
                imbalance_tolerance: None,
            },
        );
        // with one device, pipelining splits still serialize; any
        // partition has the same sum but more (B-1)*tmax slack, so one
        // stage wins
        assert_eq!(r.plan.stages.len(), 1);
    }

    // ---- candidate_submeshes --------------------------------------

    #[test]
    fn submeshes_are_power_of_two_slices() {
        for cluster in [
            MeshShape::new(1, 1),
            MeshShape::new(1, 8),
            MeshShape::new(2, 4),
            MeshShape::new(4, 8),
        ] {
            for mesh in candidate_submeshes(cluster) {
                assert!(
                    mesh.num_devices().is_power_of_two(),
                    "{mesh:?} in {cluster:?} is not a power-of-two slice"
                );
                assert!(mesh.num_devices() <= cluster.num_devices());
            }
        }
    }

    #[test]
    fn submeshes_prefer_within_node() {
        // every multi-node sub-mesh spans whole nodes: partial-node
        // slices exist only in single-node form
        for cluster in [MeshShape::new(2, 4), MeshShape::new(4, 8)] {
            for mesh in candidate_submeshes(cluster) {
                if mesh.nodes > 1 {
                    assert_eq!(
                        mesh.gpus_per_node, cluster.gpus_per_node,
                        "multi-node sub-mesh {mesh:?} slices within nodes"
                    );
                }
            }
        }
        // and every within-node power-of-two width is present
        let got = candidate_submeshes(MeshShape::new(2, 4));
        for g in [1usize, 2, 4] {
            assert!(got.contains(&MeshShape::new(1, g)), "missing (1,{g})");
        }
    }

    #[test]
    fn submeshes_include_whole_cluster() {
        for cluster in [
            MeshShape::new(1, 1),
            MeshShape::new(1, 4),
            MeshShape::new(2, 2),
            MeshShape::new(4, 8),
        ] {
            assert!(
                candidate_submeshes(cluster).contains(&cluster),
                "whole cluster {cluster:?} missing from its own sub-mesh list"
            );
        }
    }

    // ---- enumerate_candidates / imbalance filter ------------------

    #[test]
    fn full_profiling_enumerates_every_candidate() {
        let m = tiny_model();
        let cluster = MeshShape::new(2, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let cands = enumerate_candidates(m, cluster, opts);
        // closed form: ranges × configs summed over sub-meshes
        let ranges = m.num_layers * (m.num_layers + 1) / 2;
        let expected: usize = candidate_submeshes(cluster)
            .into_iter()
            .map(|mesh| ranges * table3_configs(mesh).len())
            .sum();
        assert_eq!(cands.len(), expected);
    }

    #[test]
    fn imbalance_filter_is_a_strict_predicate_subset() {
        let m = tiny_model();
        let cluster = MeshShape::new(2, 2);
        let tol = 0.25;
        let full = enumerate_candidates(
            m,
            cluster,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: None,
            },
        );
        let filtered = enumerate_candidates(
            m,
            cluster,
            InterStageOptions {
                microbatches: 4,
                imbalance_tolerance: Some(tol),
            },
        );
        assert!(filtered.len() < full.len());
        let total_dev = cluster.num_devices() as f64;
        let layers = m.num_layers as f64;
        // every survivor satisfies the predicate...
        for (stage, mesh, _) in &filtered {
            let size_frac = stage.num_layers() as f64 / layers;
            let dev_frac = mesh.num_devices() as f64 / total_dev;
            assert!(
                (size_frac - dev_frac).abs() <= tol,
                "candidate {stage:?} on {mesh:?} violates tolerance {tol}"
            );
        }
        // ...and every full-list candidate satisfying it survives
        let expected: Vec<_> = full
            .iter()
            .filter(|(stage, mesh, _)| {
                let size_frac = stage.num_layers() as f64 / layers;
                let dev_frac = mesh.num_devices() as f64 / total_dev;
                (size_frac - dev_frac).abs() <= tol
            })
            .copied()
            .collect();
        assert_eq!(filtered, expected);
    }

    // ---- DP vs exhaustive brute force -----------------------------

    /// Deterministic pseudo-random latencies: a pure hash of the
    /// candidate key and a seed, mapped into [0.5, 1.5).
    struct HashLat {
        seed: u64,
    }

    impl StageLatencyProvider for HashLat {
        fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.seed.hash(&mut h);
            (
                stage.start,
                stage.end,
                mesh.nodes,
                mesh.gpus_per_node,
                config.dp,
                config.mp,
            )
                .hash(&mut h);
            0.5 + (h.finish() % 1024) as f64 / 1024.0
        }
    }

    /// Exhaustive minimum of Eqn. 4 over every contiguous partition ×
    /// per-stage (sub-mesh, config) assignment within the device budget.
    struct BruteForce<'a, P> {
        model: ModelSpec,
        meshes: Vec<MeshShape>,
        provider: &'a P,
        microbatches: usize,
        best: f64,
    }

    impl<P: StageLatencyProvider> BruteForce<'_, P> {
        /// Extend a partial partition covering layers `0..start` that has
        /// spent `sum`/`tmax` so far with every feasible next stage.
        fn go(&mut self, start: usize, dev_left: usize, sum: f64, tmax: f64) {
            let layers = self.model.num_layers;
            if start == layers {
                let total = sum + (self.microbatches as f64 - 1.0) * tmax;
                if total < self.best {
                    self.best = total;
                }
                return;
            }
            for end in start + 1..=layers {
                let stage = StageSpec::new(self.model, start, end);
                for mi in 0..self.meshes.len() {
                    let mesh = self.meshes[mi];
                    let dev = mesh.num_devices();
                    if dev > dev_left {
                        continue;
                    }
                    for config in table3_configs(mesh) {
                        let t = self.provider.stage_latency(&stage, mesh, config);
                        if !t.is_finite() {
                            continue;
                        }
                        self.go(end, dev_left - dev, sum + t, tmax.max(t));
                    }
                }
            }
        }
    }

    fn brute_force_best<P: StageLatencyProvider>(
        model: ModelSpec,
        cluster: MeshShape,
        microbatches: usize,
        provider: &P,
    ) -> f64 {
        let mut bf = BruteForce {
            model,
            meshes: candidate_submeshes(cluster),
            provider,
            microbatches,
            best: f64::INFINITY,
        };
        bf.go(0, cluster.num_devices(), 0.0, 0.0);
        bf.best
    }

    /// The DP as it stood before the per-end grouping and the early
    /// exit: every `t_max` solved, every candidate scanned at every
    /// stage end. The reference the grouped DP must match bit for bit.
    fn scan_solve_pipeline(
        cands: &[EvaluatedCandidate],
        layers: usize,
        total_dev: usize,
        microbatches: usize,
    ) -> Option<(f64, PipelinePlan)> {
        let mut tmax_set: Vec<f64> = cands.iter().map(|c| c.seconds).collect();
        tmax_set.sort_by(f64::total_cmp);
        tmax_set.dedup();
        let mut best: Option<(f64, PipelinePlan)> = None;
        for &tmax in &tmax_set {
            if let Some((sum, plan)) = scan_dp_min_sum(cands, layers, total_dev, tmax, microbatches)
            {
                let total = sum + (microbatches as f64 - 1.0) * tmax;
                if best.as_ref().is_none_or(|(b, _)| total < *b) {
                    best = Some((total, plan));
                }
            }
        }
        best
    }

    fn scan_dp_min_sum(
        cands: &[EvaluatedCandidate],
        layers: usize,
        total_dev: usize,
        tmax: f64,
        microbatches: usize,
    ) -> Option<(f64, PipelinePlan)> {
        const INF: f64 = f64::INFINITY;
        let width = total_dev + 1;
        let mut f = vec![INF; (layers + 1) * width];
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; (layers + 1) * width];
        let mut cand_at: Vec<usize> = vec![usize::MAX; (layers + 1) * width];
        f[0] = 0.0;
        for end in 1..=layers {
            for (ci, c) in cands.iter().enumerate() {
                if c.stage.end != end || c.seconds > tmax {
                    continue;
                }
                let dev = c.mesh.num_devices();
                for d_prev in 0..width - dev {
                    let prev = f[c.stage.start * width + d_prev];
                    if prev == INF {
                        continue;
                    }
                    let idx = end * width + d_prev + dev;
                    if prev + c.seconds < f[idx] {
                        f[idx] = prev + c.seconds;
                        parent[idx] = Some((c.stage.start, d_prev));
                        cand_at[idx] = ci;
                    }
                }
            }
        }
        let (mut best_d, mut best_sum) = (0, INF);
        for d in 1..width {
            let v = f[layers * width + d];
            if v < best_sum {
                best_sum = v;
                best_d = d;
            }
        }
        if best_sum == INF {
            return None;
        }
        let mut stages_rev: Vec<PlannedStage> = Vec::new();
        let (mut end, mut d) = (layers, best_d);
        while end > 0 {
            let idx = end * width + d;
            let c = &cands[cand_at[idx]];
            stages_rev.push(PlannedStage {
                stage: c.stage,
                mesh: c.mesh,
                config: c.config,
            });
            let (pstart, pd) = parent[idx].expect("parent chain intact");
            end = pstart;
            d = pd;
        }
        stages_rev.reverse();
        Some((
            best_sum,
            PipelinePlan {
                stages: stages_rev,
                microbatches,
            },
        ))
    }

    /// SplitMix64: a few independent draws per candidate from one seed.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49eb_11b8_5133);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The grouped DP with its early exit picks the plan the full
        /// scan picks, with the same latency bits, on random tables
        /// whose latencies tie often (a handful of levels, zeros and
        /// infinities among them, negative ones in some tables) and
        /// that miss random candidates. Some tables scale the level by
        /// the stage's layer count and add a per-stage overhead, so
        /// fewer, longer stages trade a lower sum for a higher `t_max`
        /// and the optimum often lies past the first feasible `t_max`.
        #[test]
        fn grouped_dp_matches_the_full_scan(
            layers in 1usize..=7,
            cluster_idx in 0usize..4,
            microbatches in 1usize..=8,
            levels in 1u64..=5,
            drop_one_in in 0u64..=4,
            negative in 0u64..2,
            per_layer in 0u64..2,
            overhead in 0u64..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let clusters = [
                MeshShape::new(1, 1),
                MeshShape::new(1, 2),
                MeshShape::new(1, 4),
                MeshShape::new(2, 2),
            ];
            let cluster = clusters[cluster_idx];
            let mut m = ModelSpec::gpt3_1p3b(2);
            m.num_layers = layers;
            let opts = InterStageOptions {
                microbatches,
                imbalance_tolerance: None,
            };
            let cands: Vec<EvaluatedCandidate> = enumerate_candidates(m, cluster, opts)
                .into_iter()
                .enumerate()
                .filter_map(|(i, (stage, mesh, config))| {
                    let h = mix(seed ^ mix(i as u64));
                    if drop_one_in > 0 && h % 16 < drop_one_in {
                        return None;
                    }
                    let level = match (h >> 8) % (levels + 2) {
                        0 => 0.0,
                        l if l == levels + 1 => f64::INFINITY,
                        l => l as f64 * 0.1 - negative as f64 * 0.25,
                    };
                    let scale = if per_layer == 1 { stage.num_layers() } else { 1 };
                    let seconds = level * scale as f64 + overhead as f64 * 0.1;
                    Some(EvaluatedCandidate { stage, mesh, config, seconds })
                })
                .collect();
            let total_dev = cluster.num_devices();
            let grouped = solve_pipeline(&cands, layers, total_dev, microbatches);
            let scanned = scan_solve_pipeline(&cands, layers, total_dev, microbatches);
            prop_assert_eq!(
                grouped.as_ref().map(|(t, p)| (t.to_bits(), p.clone())),
                scanned.as_ref().map(|(t, p)| (t.to_bits(), p.clone()))
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The DP's optimum equals the exhaustive minimum over all
        /// contiguous partitions × sub-meshes × configurations on small
        /// instances — the core correctness property of the engine.
        #[test]
        fn dp_matches_exhaustive_brute_force(
            layers in 1usize..=6,
            cluster_idx in 0usize..4,
            microbatches in 1usize..=8,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let clusters = [
                MeshShape::new(1, 1),
                MeshShape::new(1, 2),
                MeshShape::new(1, 4),
                MeshShape::new(2, 2),
            ];
            let cluster = clusters[cluster_idx];
            let mut m = ModelSpec::gpt3_1p3b(2);
            m.num_layers = layers;
            let provider = HashLat { seed };
            let opts = InterStageOptions {
                microbatches,
                imbalance_tolerance: None,
            };

            let dp = optimize(m, cluster, &provider, opts);
            dp.plan.validate(&m).map_err(|e| {
                proptest::test_runner::TestCaseError::fail(format!("invalid plan: {e}"))
            })?;
            prop_assert!(dp.plan.devices_used() <= cluster.num_devices());

            // the reported optimum is achieved by the reported plan
            let recomputed = dp.plan.latency(&provider);
            prop_assert!(
                (recomputed - dp.latency).abs() <= 1e-9 * dp.latency.abs(),
                "plan latency {recomputed} != reported optimum {}", dp.latency
            );

            // and it matches the exhaustive search
            let brute = brute_force_best(m, cluster, microbatches, &provider);
            prop_assert!(
                (dp.latency - brute).abs() <= 1e-9 * brute.abs(),
                "DP found {} but brute force found {brute} \
                 (layers={layers}, cluster={cluster:?}, B={microbatches}, seed={seed})",
                dp.latency
            );
        }
    }
}
