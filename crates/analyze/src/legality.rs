//! Static candidate legality for the plan search.
//!
//! [`StaticLegality`] packages the plan-level divisibility and memory
//! rules as a per-candidate predicate ([`StaticLegality::is_legal`]).
//! `predtop-core`'s search engine runs it over the enumerated work-list,
//! so statically illegal `(stage, mesh, config)` candidates are rejected
//! *before* they ever reach the latency source. The memory rule reads
//! stage graphs from the simulator's [`StageGraphs`] store, so the
//! filter, the profiler and the ground-truth re-evaluation share one
//! graph per stage structure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use predtop_cluster::GpuSpec;
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{MeshShape, ParallelConfig, StageGraphs};

use crate::diag::{has_errors, sort_diagnostics, Diagnostic, Span};
use crate::plan_passes::{divisibility_diags, memory_fit_diag};

/// Per-candidate static legality checks for the plan search.
///
/// The divisibility rules (`P13xx`) are pure arithmetic; the optional
/// memory rule (`P1401`) takes each candidate's stage graph from a
/// borrowed [`StageGraphs`] store, so an `n²`-range enumeration builds
/// one graph per stage structure (`O(n)` of them for a dense decoder),
/// and none the store already holds.
pub struct StaticLegality {
    model: ModelSpec,
    microbatches: usize,
    memory: Option<MemoryCheck>,
    rejected: AtomicUsize,
    rejected_memory: AtomicUsize,
}

/// The memory rule's device, its kept-free fraction, and the store its
/// stage graphs come from.
struct MemoryCheck {
    gpu: GpuSpec,
    headroom_frac: f64,
    graphs: Arc<StageGraphs>,
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
        });
        self
    }

    /// Every `Error`-severity finding for one search candidate, in
    /// canonical order. Empty means the candidate is statically legal.
    pub fn candidate_diagnostics(
        &self,
        stage: &StageSpec,
        _mesh: MeshShape,
        config: ParallelConfig,
    ) -> Vec<Diagnostic> {
        let mut out = divisibility_diags(&self.model, self.microbatches, config, Span::Plan, None);
        // only pay for a graph build when the cheap rules pass
        if out.is_empty() {
            if let Some(m) = &self.memory {
                let graph = m.graphs.get(stage);
                if let Some(d) =
                    memory_fit_diag(&graph, config, &m.gpu, m.headroom_frac, Span::Plan)
                {
                    out.push(d);
                }
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

    /// How many candidates [`Self::is_legal`] has rejected so far.
    pub fn rejections(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// How many of those rejections were the liveness-tight `P1401`
    /// memory-fit rule (as opposed to pure divisibility arithmetic).
    pub fn memory_rejections(&self) -> usize {
        self.rejected_memory.load(Ordering::Relaxed)
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
    }
}
