//! Buffer liveness over a stage's execution schedule, and the peak
//! resident-memory fact built on it (DESIGN.md §12).
//!
//! Node ids are a topological schedule, so liveness runs over the chain
//! `0 → 1 → … → n−1`. [`resident_sets`] spells the analysis out: one
//! backward scan from the retained set ([`predtop_ir::live`]) yields,
//! for every program point, the set of activation buffers resident
//! while that node executes. `sim::memory::MemorySummary` computes the
//! same sets' peak weight in one forward sweep over live intervals
//! instead, and [`resident_sets`] stays as the reference it is tested
//! against. That peak replaces the retain-everything sum in the `P1401`
//! memory-fit rule and is what `P0501` reports.

use predtop_ir::{live, Graph, NodeId};
use predtop_parallel::ParallelConfig;
use predtop_sim::memory::{ActivationSweep, MemorySummary};

use crate::diag::{Diagnostic, Severity, Span};
use crate::pass::GraphPass;

/// Per-program-point resident sets of `graph`: entry `i` lists, in
/// ascending order, the buffers occupying memory *while node `i`
/// executes* — the buffers live before `i`, plus `i`'s own output being
/// written.
///
/// One backward scan over the schedule: the buffers live after the last
/// node are the retained set (every buffer the backward pass reads);
/// the buffers live before node `i` are those live after it, minus
/// `i`'s own buffer (its definition), plus the buffers `i` reads (its
/// operands); and the buffers live after node `i − 1` are those live
/// before `i`. A transient buffer (a prunable op's output) therefore
/// drops out past its last use, which is exactly the slack the peak
/// bound recovers.
///
/// This is the reference for `MemorySummary`'s sweep: `n` sets of up to
/// `n` members, so quadratic in the graph size. Production code takes
/// the peak from the interval sweep.
pub fn resident_sets(graph: &Graph) -> Vec<Vec<usize>> {
    let n = graph.len();
    let mut live = vec![false; n];
    for id in live::retained_set(graph) {
        live[id.index()] = true;
    }
    let mut sets = vec![Vec::new(); n];
    for i in (0..n).rev() {
        live[i] = false;
        for p in graph.preds(NodeId(i as u32)) {
            live[p.index()] = true;
        }
        sets[i] = (0..n).filter(|&j| live[j] || j == i).collect();
    }
    sets
}

// ---------------------------------------------------------------------
// The liveness graph pass (P05xx block).
// ---------------------------------------------------------------------

/// `liveness` — reports the peak-resident activation footprint of the
/// graph's schedule versus the retain-everything sum (`P0501`, info).
///
/// The serial, unsharded footprint is a property of the graph alone, so
/// this runs as a graph pass; the plan-aware variant of the same bound,
/// from the same `sim::memory::MemorySummary`, feeds the `P1401`
/// memory-fit rule via `plan_passes::memory_fit_diag` (DESIGN.md §12).
pub struct LivenessPass;

impl GraphPass for LivenessPass {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn description(&self) -> &'static str {
        "peak resident activation bytes over the execution schedule"
    }

    fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        let ActivationSweep { peak, at, sum } =
            MemorySummary::of(graph).sweep(ParallelConfig::SERIAL);
        if sum == 0 {
            return Vec::new();
        }
        let pct = 100.0 * peak as f64 / sum as f64;
        vec![Diagnostic::new(
            501,
            Severity::Info,
            Span::Graph,
            format!(
                "liveness: peak resident activations {peak} bytes at point {at} \
                 of {} ({pct:.1}% of the {sum}-byte retain-everything sum)",
                graph.len()
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_ir::{DType, GraphBuilder, OpKind, Shape};

    fn diamond() -> Graph {
        // 0: input → 1: reshape (transient) → {2: exp, 3: neg} → 4: add
        // → 5: output
        let mut b = GraphBuilder::new();
        let x = b.input(Shape::from([4, 8]), DType::F32);
        let r = b.op(OpKind::Reshape, &[x], Shape::from([8, 4]), DType::F32);
        let e = b.unary(OpKind::Exp, r);
        let n = b.unary(OpKind::Neg, r);
        let a = b.binary(OpKind::Add, e, n);
        b.finish(&[a]).unwrap()
    }

    #[test]
    fn chain_liveness_matches_hand_computation() {
        let g = diamond();
        let sets = resident_sets(&g);
        // retained = {0,2,3,4,5}; transient reshape 1 dies after node 3
        assert_eq!(sets[0], vec![0]);
        assert_eq!(sets[1], vec![0, 1]);
        assert_eq!(sets[2], vec![0, 1, 2]);
        assert_eq!(sets[3], vec![0, 1, 2, 3]);
        assert_eq!(sets[4], vec![0, 2, 3, 4], "reshape buffer freed");
        assert_eq!(sets[5], vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn peak_is_below_sum_when_transients_die() {
        let g = diamond();
        let ActivationSweep { peak, sum, .. } = MemorySummary::of(&g).sweep(ParallelConfig::SERIAL);
        assert!(peak > 0);
        assert!(
            peak < sum,
            "transient reshape must create slack: {peak} vs {sum}"
        );
    }

    #[test]
    fn liveness_pass_reports_peak_info() {
        let g = diamond();
        let diags = LivenessPass.run(&g);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.0, 501);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("peak resident"));
    }
}
