//! Static candidate legality for the plan search.
//!
//! [`StaticLegality`] packages the plan-level divisibility and memory
//! rules as a per-candidate predicate ([`StaticLegality::is_legal`]).
//! `predtop-core`'s search engine runs it over the enumerated work-list
//! through [`StaticLegality::filter`], so statically illegal
//! `(stage, mesh, config)` candidates are rejected *before* they ever
//! reach the latency source. The memory rule reads stage graphs from
//! the simulator's [`StageGraphs`] store, so the filter, the profiler
//! and the ground-truth re-evaluation share one graph per stage
//! structure, and it judges each (stage structure, configuration) pair
//! once, from one memory summary per graph.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use predtop_cluster::GpuSpec;
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::intern::SubProblem;
use predtop_parallel::{MeshShape, ParallelConfig, StageGraphs, StageStructure};
use predtop_runtime::par_map_with;
use predtop_sim::memory::MemorySummary;

use crate::diag::{has_errors, sort_diagnostics, Diagnostic, Span};
use crate::plan_passes::{divisibility_diags, memory_fit_diag};

/// Per-candidate static legality checks for the plan search.
///
/// The divisibility rules (`P13xx`) are pure arithmetic; the optional
/// memory rule (`P1401`) takes each candidate's stage graph from a
/// borrowed [`StageGraphs`] store, so an `n²`-range enumeration builds
/// one graph per stage structure (`O(n)` of them for a dense decoder),
/// and none the store already holds. The rule's verdict reads the graph
/// and the configuration, never the mesh, so it is memoized per
/// (stage structure, configuration): every later candidate of a pair
/// reads the first one's verdict.
pub struct StaticLegality {
    model: ModelSpec,
    microbatches: usize,
    memory: Option<MemoryCheck>,
    rejected: AtomicUsize,
    rejected_memory: AtomicUsize,
}

/// `memory_fit_diag`'s answer per (stage structure, configuration).
type Verdicts = HashMap<(StageStructure, ParallelConfig), Option<Diagnostic>>;

/// The memory rule's device, its kept-free fraction, the store its
/// stage graphs come from, its verdicts so far, and how many of them
/// took the exact sweep.
struct MemoryCheck {
    gpu: GpuSpec,
    headroom_frac: f64,
    graphs: Arc<StageGraphs>,
    /// Sound because equal structures build equal graphs, and the GPU
    /// and headroom are fixed for the filter's lifetime.
    verdicts: Mutex<Verdicts>,
    sweeps: AtomicUsize,
}

impl MemoryCheck {
    /// The verdict for each of `configs`, in order, on `stage`'s graph:
    /// one summary of the graph answers them all.
    fn judge(&self, stage: &StageSpec, configs: &[ParallelConfig]) -> Vec<Option<Diagnostic>> {
        let summary = MemorySummary::of(&self.graphs.get(stage));
        let verdicts = configs
            .iter()
            .map(|&config| {
                memory_fit_diag(&summary, config, &self.gpu, self.headroom_frac, Span::Plan)
            })
            .collect();
        self.sweeps.fetch_add(summary.sweeps(), Ordering::Relaxed);
        verdicts
    }

    fn verdicts(&self) -> MutexGuard<'_, Verdicts> {
        self.verdicts
            .lock()
            .expect("verdict lock never poisoned: no verdict is reached under it")
    }

    /// The memoized verdict for `stage` under `config`; a miss builds
    /// (or borrows) the graph and judges it outside the lock.
    fn verdict(&self, stage: &StageSpec, config: ParallelConfig) -> Option<Diagnostic> {
        let key = (StageStructure::of(stage), config);
        if let Some(v) = self.verdicts().get(&key) {
            return v.clone();
        }
        let v = self.judge(stage, &[config]).swap_remove(0);
        self.verdicts().entry(key).or_insert(v).clone()
    }
}

impl StaticLegality {
    /// Divisibility-only legality for `model` split into `microbatches`.
    pub fn new(model: ModelSpec, microbatches: usize) -> StaticLegality {
        StaticLegality {
            model,
            microbatches,
            memory: None,
            rejected: AtomicUsize::new(0),
            rejected_memory: AtomicUsize::new(0),
        }
    }

    /// Additionally reject candidates whose per-device memory lower
    /// bound cannot fit `gpu` with `headroom_frac` kept free, reading
    /// stage graphs from `graphs` (the simulator's store, so the search
    /// builds each structure once).
    pub fn with_memory_check(
        mut self,
        gpu: GpuSpec,
        headroom_frac: f64,
        graphs: Arc<StageGraphs>,
    ) -> StaticLegality {
        self.memory = Some(MemoryCheck {
            gpu,
            headroom_frac,
            graphs,
            verdicts: Mutex::new(HashMap::new()),
            sweeps: AtomicUsize::new(0),
        });
        self
    }

    fn divisibility(&self, config: ParallelConfig) -> Vec<Diagnostic> {
        divisibility_diags(&self.model, self.microbatches, config, Span::Plan, None)
    }

    /// Every `Error`-severity finding for one search candidate, in
    /// canonical order. Empty means the candidate is statically legal.
    pub fn candidate_diagnostics(
        &self,
        stage: &StageSpec,
        _mesh: MeshShape,
        config: ParallelConfig,
    ) -> Vec<Diagnostic> {
        let mut out = self.divisibility(config);
        // only pay for a graph build when the cheap rules pass
        if out.is_empty() {
            if let Some(d) = self.memory.as_ref().and_then(|m| m.verdict(stage, config)) {
                out.push(d);
            }
        }
        sort_diagnostics(&mut out);
        out
    }

    /// The search-engine predicate: `true` iff the candidate has no
    /// `Error`-severity finding.
    pub fn is_legal(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> bool {
        let diags = self.candidate_diagnostics(stage, mesh, config);
        if !has_errors(&diags) {
            return true;
        }
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if diags.iter().any(|d| d.code.0 == 1401) {
            self.rejected_memory.fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    /// The legal `candidates`, in their order: the same list, counters
    /// and verdicts as calling [`Self::is_legal`] on each, with the
    /// memory rule's graph builds and verdicts spread over `threads`
    /// workers first.
    ///
    /// Runs in three steps: the divisibility rules pick the candidates
    /// the memory rule must judge; one pool task per distinct stage
    /// structure among them takes its graph from the store once,
    /// summarizes it, and judges each of its unjudged configurations
    /// into the memo; then the serial [`Self::is_legal`] pass, every
    /// verdict now a memo read, fixes the order and the counters. Each
    /// structure is one task, so no graph is built twice, and no lock is
    /// held across a build or a verdict.
    pub fn filter(&self, candidates: Vec<SubProblem>, threads: usize) -> Vec<SubProblem> {
        if let Some(m) = &self.memory {
            let mut tasks: Vec<(StageSpec, Vec<ParallelConfig>)> = Vec::new();
            let mut task_of: HashMap<StageStructure, usize> = HashMap::new();
            {
                let judged = m.verdicts();
                for (stage, _, config) in &candidates {
                    if !self.divisibility(*config).is_empty() {
                        continue;
                    }
                    let key = StageStructure::of(stage);
                    if judged.contains_key(&(key, *config)) {
                        continue;
                    }
                    let task = *task_of.entry(key).or_insert_with(|| {
                        tasks.push((*stage, Vec::new()));
                        tasks.len() - 1
                    });
                    let configs = &mut tasks[task].1;
                    if !configs.contains(config) {
                        configs.push(*config);
                    }
                }
            }
            let verdicts = par_map_with(tasks, threads, |(stage, configs)| {
                let key = StageStructure::of(&stage);
                let verdicts = m.judge(&stage, &configs);
                configs
                    .into_iter()
                    .map(|config| (key, config))
                    .zip(verdicts)
                    .collect::<Vec<_>>()
            });
            m.verdicts().extend(verdicts.into_iter().flatten());
        }
        candidates
            .into_iter()
            .filter(|(stage, mesh, config)| self.is_legal(stage, *mesh, *config))
            .collect()
    }

    /// How many candidates [`Self::is_legal`] has rejected so far.
    pub fn rejections(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// How many of those rejections were the liveness-tight `P1401`
    /// memory-fit rule (as opposed to pure divisibility arithmetic).
    pub fn memory_rejections(&self) -> usize {
        self.rejected_memory.load(Ordering::Relaxed)
    }

    /// How many memory verdicts the filter holds: one per (stage
    /// structure, configuration) pair the memory rule judged. Always 0
    /// without a memory check.
    pub fn memory_checks(&self) -> usize {
        self.memory.as_ref().map_or(0, |m| m.verdicts().len())
    }

    /// How many exact liveness sweeps those verdicts took: a verdict
    /// whose retain-everything ceiling fits the device takes none.
    /// Always 0 without a memory check.
    pub fn memory_sweeps(&self) -> usize {
        self.memory
            .as_ref()
            .map_or(0, |m| m.sweeps.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisibility_rejects_oversharded_configs() {
        // batch 4, 2 micro-batches -> per-microbatch 2; heads = 2
        let mut m = ModelSpec::gpt3_1p3b(4);
        m.num_heads = 2;
        m.num_layers = 4;
        let leg = StaticLegality::new(m, 2);
        let s = StageSpec::new(m, 0, 2);
        let mesh = MeshShape::new(2, 2);
        assert!(leg.is_legal(&s, mesh, ParallelConfig::new(2, 2)));
        assert!(leg.is_legal(&s, mesh, ParallelConfig::new(1, 2)));
        // dp=4 needs per-microbatch % 4 == 0
        assert!(!leg.is_legal(&s, mesh, ParallelConfig::new(4, 1)));
        // mp=4 needs heads % 4 == 0
        assert!(!leg.is_legal(&s, mesh, ParallelConfig::new(1, 4)));
        let diags = leg.candidate_diagnostics(&s, mesh, ParallelConfig::new(4, 4));
        let codes: Vec<u16> = diags.iter().map(|d| d.code.0).collect();
        assert_eq!(codes, vec![1302, 1304]);
    }

    #[test]
    fn indivisible_microbatch_count_rejects_everything() {
        let m = ModelSpec::gpt3_1p3b(8);
        let leg = StaticLegality::new(m, 3); // 8 % 3 != 0
        let s = StageSpec::new(m, 0, 4);
        let diags = leg.candidate_diagnostics(&s, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.0, 1301);
    }

    #[test]
    fn memory_check_rejects_a_full_model_on_one_small_gpu() {
        // mirrors sim's Table IV observation: GPT-3 1.3B training state
        // cannot fit a single 24 GiB device
        let m = ModelSpec::gpt3_1p3b(1);
        let leg = StaticLegality::new(m, 1).with_memory_check(
            GpuSpec::a5500(),
            0.1,
            Arc::new(StageGraphs::new()),
        );
        let s = StageSpec::new(m, 0, m.num_layers);
        let diags = leg.candidate_diagnostics(&s, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        assert!(
            diags.iter().any(|d| d.code.0 == 1401),
            "expected a P1401 memory-fit error, got {diags:?}"
        );
        assert!(!leg.is_legal(&s, MeshShape::new(1, 1), ParallelConfig::SERIAL));
    }

    #[test]
    fn stage_graphs_are_cached_by_layer_range() {
        // the filter borrows the store: three interior windows of one
        // structure, each under three configs, leave one graph in it
        let m = ModelSpec::gpt3_1p3b(8);
        let graphs = Arc::new(StageGraphs::new());
        let leg =
            StaticLegality::new(m, 1).with_memory_check(GpuSpec::a40(), 0.1, Arc::clone(&graphs));
        for start in [1, 2, 3] {
            let s = StageSpec::new(m, start, start + 2);
            for mp in [1, 2, 4] {
                let _ = leg.is_legal(&s, MeshShape::new(1, 4), ParallelConfig::new(1, mp));
            }
        }
        assert_eq!(graphs.len(), 1);
        assert_eq!(leg.memory_checks(), 3, "one bound per (structure, config)");
    }

    /// The benchmark's small MoE on Platform 2's 2×2 cluster with 4
    /// micro-batches, and its candidate work-list.
    fn moe_problem() -> (ModelSpec, Vec<SubProblem>) {
        use predtop_parallel::{enumerate_candidates, InterStageOptions};
        let mut model = ModelSpec::moe_2p6b(4);
        model.seq_len = 32;
        model.hidden = 32;
        model.num_heads = 4;
        model.vocab = 64;
        model.num_layers = 16;
        if let Some(moe) = model.moe.as_mut() {
            moe.num_experts = 4;
        }
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        (
            model,
            enumerate_candidates(model, MeshShape::new(2, 2), opts),
        )
    }

    /// A 0.045 GiB device: the `P1401` branch rejects 110 candidates.
    fn tight_gpu() -> GpuSpec {
        GpuSpec {
            name: "tight-test-gpu",
            memory_gib: 0.045,
            ..GpuSpec::a40()
        }
    }

    #[test]
    fn filter_matches_the_serial_predicate_at_every_thread_count() {
        let (model, work) = moe_problem();
        let checked = || {
            StaticLegality::new(model, 4).with_memory_check(
                tight_gpu(),
                0.1,
                Arc::new(StageGraphs::new()),
            )
        };
        let serial = checked();
        let want: Vec<SubProblem> = work
            .iter()
            .filter(|(s, m, c)| serial.is_legal(s, *m, *c))
            .copied()
            .collect();
        assert_eq!(serial.memory_rejections(), 110);
        // 105 of the 174 verdicts fit under the retain-everything ceiling
        assert_eq!((serial.memory_checks(), serial.memory_sweeps()), (174, 69));
        for threads in [1, 2, 4, 8] {
            let leg = checked();
            let got = leg.filter(work.clone(), threads);
            assert_eq!(got, want, "{threads} threads");
            assert_eq!(leg.rejections(), serial.rejections(), "{threads} threads");
            assert_eq!(leg.memory_rejections(), 110, "{threads} threads");
            assert_eq!(leg.memory_checks(), serial.memory_checks());
            assert_eq!(leg.memory_sweeps(), 69, "{threads} threads");
        }

        // every memoized verdict is the one a freshly built graph gives
        let leg = checked();
        leg.filter(work.clone(), 2);
        let mut fresh: HashMap<(usize, usize), MemorySummary> = HashMap::new();
        for (stage, mesh, config) in &work {
            let mut expected = leg.divisibility(*config);
            if expected.is_empty() {
                let summary = fresh
                    .entry((stage.start, stage.end))
                    .or_insert_with(|| MemorySummary::of(&stage.build_graph()));
                expected.extend(memory_fit_diag(
                    summary,
                    *config,
                    &tight_gpu(),
                    0.1,
                    Span::Plan,
                ));
            }
            sort_diagnostics(&mut expected);
            assert_eq!(
                leg.candidate_diagnostics(stage, *mesh, *config),
                expected,
                "{stage:?} on {mesh:?} under {config:?}"
            );
        }
    }

    #[test]
    fn filter_builds_no_graph_when_nothing_reaches_the_memory_rule() {
        let (model, work) = moe_problem();
        let graphs = Arc::new(StageGraphs::new());
        let leg =
            StaticLegality::new(model, 4).with_memory_check(tight_gpu(), 0.1, Arc::clone(&graphs));
        assert!(leg.filter(Vec::new(), 4).is_empty());
        assert_eq!(
            (graphs.len(), leg.memory_checks(), leg.rejections()),
            (0, 0, 0)
        );
        assert_eq!(leg.memory_sweeps(), 0);

        // 3 micro-batches do not divide batch 4: P1301 rejects all
        let leg =
            StaticLegality::new(model, 3).with_memory_check(tight_gpu(), 0.1, Arc::clone(&graphs));
        assert!(leg.filter(work.clone(), 4).is_empty());
        assert_eq!(leg.rejections(), work.len());
        assert_eq!(leg.memory_rejections(), 0);
        assert_eq!((graphs.len(), leg.memory_checks()), (0, 0));
    }
}
