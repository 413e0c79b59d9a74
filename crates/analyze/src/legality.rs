//! Static candidate legality for the plan search.
//!
//! [`StaticLegality`] packages the plan-level divisibility and memory
//! rules as a per-candidate predicate ([`StaticLegality::is_legal`]).
//! `predtop-core`'s search engine runs it over the enumerated work-list
//! through [`StaticLegality::filter`], so statically illegal
//! `(stage, mesh, config)` candidates are rejected *before* they ever
//! reach the latency source. The memory rule judges each (stage
//! structure, configuration) pair once. It first reads the pair's
//! retain-everything ceiling from the filter model's part sums
//! ([`PartSums`]), with no stage graph; only a ceiling that overflows
//! takes the stage's graph from the simulator's [`StageGraphs`] store
//! (shared with the profiler and the ground-truth re-evaluation) and
//! judges it from one memory summary per graph.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use predtop_cluster::GpuSpec;
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::intern::SubProblem;
use predtop_parallel::{MeshShape, ParallelConfig, StageGraphs, StageStructure};
use predtop_runtime::par_map_with;
use predtop_sim::memory::{MemorySummary, PartSums};

use crate::diag::{sort_diagnostics, Diagnostic, Span};
use crate::plan_passes::{divisibility_diags, divisible, memory_fit_diag};

/// Per-candidate static legality checks for the plan search.
///
/// The divisibility rules (`P13xx`) are a few integer remainders of the
/// configuration; [`Self::is_legal`] evaluates them and builds no
/// diagnostic. The optional memory rule (`P1401`) settles
/// every pair whose ceiling fits from the part sums of the filter's
/// model, and takes a stage graph from a borrowed [`StageGraphs`] store
/// only for a pair whose ceiling overflows: at most one graph per stage
/// structure, and none the store already holds. The rule's verdict reads
/// the stage and the configuration, never the mesh, so it is memoized
/// per (stage structure, configuration): every later candidate of a
/// pair reads the first one's verdict.
pub struct StaticLegality {
    model: ModelSpec,
    microbatches: usize,
    memory: Option<MemoryCheck>,
    rejected: AtomicUsize,
    rejected_memory: AtomicUsize,
}

/// `memory_fit_diag`'s answer per (stage structure, configuration).
type Verdicts = HashMap<(StageStructure, ParallelConfig), Option<Diagnostic>>;

/// The memory rule's device, its kept-free fraction, the part sums of
/// the filter's model, the store its stage graphs come from, its
/// verdicts so far, and how many of them took the exact sweep.
struct MemoryCheck {
    gpu: GpuSpec,
    headroom_frac: f64,
    parts: PartSums,
    graphs: Arc<StageGraphs>,
    /// Sound because equal structures build equal graphs, and the GPU
    /// and headroom are fixed for the filter's lifetime.
    verdicts: Mutex<Verdicts>,
    sweeps: AtomicUsize,
}

impl MemoryCheck {
    /// The verdict for each of `configs`, in order, on `stage`: "fits"
    /// wherever the ceiling read from the part sums fits, and otherwise
    /// the exact bound from one summary of the stage's graph, which is
    /// taken from the store only when some ceiling overflows.
    fn judge(&self, stage: &StageSpec, configs: &[ParallelConfig]) -> Vec<Option<Diagnostic>> {
        let sums = self.parts.sums(stage);
        let mut summary = None;
        let verdicts = configs
            .iter()
            .map(|&config| {
                if sums.ceiling_fits(config, &self.gpu, self.headroom_frac) {
                    return None;
                }
                let summary =
                    summary.get_or_insert_with(|| MemorySummary::of(&self.graphs.get(stage)));
                memory_fit_diag(summary, config, &self.gpu, self.headroom_frac, Span::Plan)
            })
            .collect();
        if let Some(summary) = summary {
            self.sweeps.fetch_add(summary.sweeps(), Ordering::Relaxed);
        }
        verdicts
    }

    fn verdicts(&self) -> MutexGuard<'_, Verdicts> {
        self.verdicts
            .lock()
            .expect("verdict lock never poisoned: no verdict is reached under it")
    }

    /// `read` of the memoized verdict for `stage` under `config`; a miss
    /// is judged outside the lock.
    fn verdict<T>(
        &self,
        stage: &StageSpec,
        config: ParallelConfig,
        read: impl FnOnce(&Option<Diagnostic>) -> T,
    ) -> T {
        let key = (StageStructure::of(stage), config);
        if let Some(v) = self.verdicts().get(&key) {
            return read(v);
        }
        let v = self.judge(stage, &[config]).swap_remove(0);
        read(self.verdicts().entry(key).or_insert(v))
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
    /// bound cannot fit `gpu` with `headroom_frac` kept free. Emits the
    /// model's parts once, for every ceiling, and reads the stage graphs
    /// an overflowing ceiling needs from `graphs` (the simulator's
    /// store, so the search builds each structure once).
    pub fn with_memory_check(
        mut self,
        gpu: GpuSpec,
        headroom_frac: f64,
        graphs: Arc<StageGraphs>,
    ) -> StaticLegality {
        self.memory = Some(MemoryCheck {
            gpu,
            headroom_frac,
            parts: PartSums::of(self.model),
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
            if let Some(m) = &self.memory {
                out.extend(m.verdict(stage, config, Option::clone));
            }
        }
        sort_diagnostics(&mut out);
        out
    }

    /// The search-engine predicate: `true` iff the candidate has no
    /// `Error`-severity finding, read from the verdicts alone: it
    /// formats no message.
    pub fn is_legal(&self, stage: &StageSpec, _mesh: MeshShape, config: ParallelConfig) -> bool {
        if !divisible(&self.model, self.microbatches, config) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let over = self
            .memory
            .as_ref()
            .is_some_and(|m| m.verdict(stage, config, Option::is_some));
        if over {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.rejected_memory.fetch_add(1, Ordering::Relaxed);
        }
        !over
    }

    /// The legal `candidates`, in their order: the same list, counters
    /// and verdicts as calling [`Self::is_legal`] on each, with the
    /// memory rule's graph builds and exact verdicts spread over
    /// `threads` workers first.
    ///
    /// Runs in three steps. A serial pre-pass lets the divisibility
    /// verdicts pick the candidates the memory rule must judge, groups
    /// their unjudged (structure, configuration) pairs by structure,
    /// adds up each structure's part sums once, and settles every pair
    /// whose ceiling fits as "fits" into the memo. One pool task per
    /// structure with a pair left takes its graph from the store once,
    /// summarizes it, and judges each of those configurations into the
    /// memo. Then the serial [`Self::is_legal`] pass, every verdict now
    /// a memo read, fixes the order and the counters. Each structure is
    /// one task, so no graph is built twice, and no lock is held across
    /// a graph build or a verdict.
    pub fn filter(&self, candidates: Vec<SubProblem>, threads: usize) -> Vec<SubProblem> {
        if let Some(m) = &self.memory {
            let mut tasks: Vec<(StageSpec, Vec<ParallelConfig>)> = Vec::new();
            let mut task_of: HashMap<StageStructure, usize> = HashMap::new();
            {
                let mut judged = m.verdicts();
                for (stage, _, config) in &candidates {
                    if !divisible(&self.model, self.microbatches, *config) {
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
                // settled only now, into a memo grown once: while it is
                // empty, the lookups above return without hashing
                judged.reserve(tasks.iter().map(|(_, configs)| configs.len()).sum());
                for (stage, configs) in &mut tasks {
                    let (key, sums) = (StageStructure::of(stage), m.parts.sums(stage));
                    configs.retain(|&config| {
                        let fits = sums.ceiling_fits(config, &m.gpu, m.headroom_frac);
                        if fits {
                            judged.insert((key, config), None);
                        }
                        !fits
                    });
                }
            }
            tasks.retain(|(_, configs)| !configs.is_empty());
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

    /// Three interior windows of one structure, each under three
    /// configs, judged by a filter on `gpu`: how many graphs the store
    /// holds after, and how many verdicts the filter reached.
    fn judge_two_layer_windows(gpu: GpuSpec) -> (usize, usize) {
        let m = ModelSpec::gpt3_1p3b(8);
        let graphs = Arc::new(StageGraphs::new());
        let leg = StaticLegality::new(m, 1).with_memory_check(gpu, 0.1, Arc::clone(&graphs));
        for start in [1, 2, 3] {
            let s = StageSpec::new(m, start, start + 2);
            for mp in [1, 2, 4] {
                let _ = leg.is_legal(&s, MeshShape::new(1, 4), ParallelConfig::new(1, mp));
            }
        }
        (graphs.len(), leg.memory_checks())
    }

    #[test]
    fn fitting_ceilings_need_no_stage_graph() {
        // an A40 holds every two-layer ceiling: the part sums settle all
        // three (structure, config) pairs and no graph is built
        assert_eq!(judge_two_layer_windows(GpuSpec::a40()), (0, 3));
    }

    #[test]
    fn stage_graphs_are_cached_by_layer_range() {
        // on a 1 GiB device the two-layer window overflows its ceiling,
        // so the filter borrows the store: the three windows share one
        // graph, judged once per (structure, config)
        let small = GpuSpec {
            name: "small-test-gpu",
            memory_gib: 1.0,
            ..GpuSpec::a40()
        };
        assert_eq!(judge_two_layer_windows(small), (1, 3));
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

    /// On the tight device 43 of the 58 structures overflow some
    /// ceiling, and 105 of the 174 verdicts fit under it; Platform 2's
    /// devices hold every ceiling, so its verdicts need no graph and no
    /// sweep.
    #[test]
    fn filter_matches_the_serial_predicate_at_every_thread_count() {
        let (model, work) = moe_problem();
        let platform2 = predtop_cluster::Platform::platform2().gpu;
        // (device, graphs the filter builds, sweeps, P1401 rejections)
        for (gpu, built, sweeps, rejected) in [(tight_gpu(), 43, 69, 110), (platform2, 0, 0, 0)] {
            let checked = |graphs: &Arc<StageGraphs>| {
                StaticLegality::new(model, 4).with_memory_check(
                    gpu.clone(),
                    0.1,
                    Arc::clone(graphs),
                )
            };
            let serial = checked(&Arc::new(StageGraphs::new()));
            let want: Vec<SubProblem> = work
                .iter()
                .filter(|(s, m, c)| serial.is_legal(s, *m, *c))
                .copied()
                .collect();
            assert_eq!(serial.memory_rejections(), rejected, "{}", gpu.name);
            assert_eq!(
                (serial.memory_checks(), serial.memory_sweeps()),
                (174, sweeps),
                "{}",
                gpu.name
            );
            for threads in [1, 2, 4, 8] {
                let store = Arc::new(StageGraphs::new());
                let leg = checked(&store);
                let got = leg.filter(work.clone(), threads);
                let at = format!("{} at {threads} threads", gpu.name);
                assert_eq!(got, want, "{at}");
                assert_eq!(leg.rejections(), serial.rejections(), "{at}");
                let counts = (
                    store.len(),
                    leg.memory_checks(),
                    leg.memory_sweeps(),
                    leg.memory_rejections(),
                );
                assert_eq!(counts, (built, 174, sweeps, rejected), "{at}");
            }

            // every memoized verdict is the one a freshly built graph gives
            let leg = checked(&Arc::new(StageGraphs::new()));
            leg.filter(work.clone(), 2);
            let mut fresh: HashMap<(usize, usize), MemorySummary> = HashMap::new();
            for (stage, mesh, config) in &work {
                let mut expected = leg.divisibility(*config);
                if expected.is_empty() {
                    let summary = fresh
                        .entry((stage.start, stage.end))
                        .or_insert_with(|| MemorySummary::of(&stage.build_graph()));
                    expected.extend(memory_fit_diag(summary, *config, &gpu, 0.1, Span::Plan));
                }
                sort_diagnostics(&mut expected);
                assert_eq!(
                    leg.candidate_diagnostics(stage, *mesh, *config),
                    expected,
                    "{stage:?} on {mesh:?} under {config:?} on {}",
                    gpu.name
                );
            }
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `is_legal`, which reads the per-config verdicts and formats no
        /// message, answers what `candidate_diagnostics` reports, and the
        /// counters count what the diagnostics imply: over random batches,
        /// micro-batch counts (0 and non-dividing ones give `P1301`),
        /// head and hidden sizes, configurations (each may repeat, and
        /// there may be more than the verdict slots hold), and
        /// devices from one that rejects most stages by `P1401` to one
        /// that holds them all.
        #[test]
        fn prop_is_legal_agrees_with_the_diagnostics(
            batch in 0usize..6,
            microbatches in 0usize..6,
            heads in 0usize..3,
            hidden in 0usize..3,
            device in 0usize..4,
            configs in proptest::collection::vec((0usize..6, 0usize..4), 1..=12),
        ) {
            let batch = [1, 2, 4, 6, 8, 12][batch];
            // mostly a dividing count; 0 and 5 never divide
            let microbatches = [0, 1, 1, 2, batch, 5][microbatches];
            let mut m = ModelSpec::gpt3_1p3b(batch);
            m.seq_len = 8;
            m.vocab = 32;
            m.num_layers = 3;
            m.num_heads = [2, 4, 6][heads];
            m.hidden = [24, 32, 48][hidden];
            let leg = StaticLegality::new(m, microbatches);
            let leg = match [None, Some(0.0005), Some(0.002), Some(0.05)][device] {
                None => leg,
                Some(memory_gib) => {
                    let gpu = GpuSpec { name: "prop-gpu", memory_gib, ..GpuSpec::a40() };
                    leg.with_memory_check(gpu, 0.1, Arc::new(StageGraphs::new()))
                }
            };
            let mesh = MeshShape::new(1, 1);
            let (mut rejected, mut memory) = (0, 0);
            for (i, &(dp, mp)) in configs.iter().enumerate() {
                // up to 12 distinct configs, more than the slots hold,
                // and one too large to pack
                let config = ParallelConfig::new([1, 1, 2, 3, 4, 1 << 31][dp], [1, 1, 2, 4][mp]);
                let stage = StageSpec::new(m, i % 3, 3);
                // the predicate first on even steps, so a config's first
                // sighting reaches either path
                let (legal, diags) = if i % 2 == 0 {
                    let legal = leg.is_legal(&stage, mesh, config);
                    (legal, leg.candidate_diagnostics(&stage, mesh, config))
                } else {
                    let diags = leg.candidate_diagnostics(&stage, mesh, config);
                    (leg.is_legal(&stage, mesh, config), diags)
                };
                proptest::prop_assert_eq!(legal, diags.is_empty());
                rejected += usize::from(!legal);
                memory += usize::from(diags.iter().any(|d| d.code.0 == 1401));
                proptest::prop_assert_eq!(
                    (leg.rejections(), leg.memory_rejections()),
                    (rejected, memory)
                );
            }
        }
    }
}
