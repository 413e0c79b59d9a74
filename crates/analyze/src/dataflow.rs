//! Deterministic worklist fixpoint dataflow engine, and the backward
//! buffer-liveness analysis built on it.
//!
//! The engine (DESIGN.md §12) is the analyzer's substrate for any
//! analysis expressible as *join over flow neighbours, then a monotone
//! transfer*: a [`Lattice`] supplies the value type, direction,
//! boundary condition, transfer function, and join; [`solve`] runs the
//! classic worklist algorithm over a [`FlowGraph`] to the least
//! fixpoint.
//!
//! Determinism contract: the engine is **sequential by construction**.
//! The worklist is seeded in topological order (ascending node ids
//! forward, descending backward — `predtop-ir` graphs have dense
//! topologically ordered ids, so id order *is* a topological order),
//! nodes are processed FIFO, and successors are appended in a fixed
//! order. Thread-count invariance of the analyzer is preserved because
//! parallelism only ever happens *across* passes (the registry's
//! `par_map_with` fan-out), never inside a fixpoint solve — the same
//! discipline that keeps the plan search bit-identical at any
//! `PREDTOP_THREADS`.
//!
//! The first client is [`LiveBuffers`]: a backward liveness pass over
//! the stage's execution schedule that computes, for every program
//! point, the set of live activation buffers ([`resident_sets`]).
//! [`peak_resident_bytes`] computes the same sets' peak weight
//! (`sim::memory::activation_profile` per buffer) in one sweep over
//! live intervals instead, and the fixpoint stays as the reference it
//! is tested against. That peak replaces the retain-everything sum in
//! the `P1401` memory-fit rule.

use predtop_ir::{live, Graph, NodeId};

use crate::diag::{Diagnostic, Severity, Span};
use crate::pass::GraphPass;

/// Which way values propagate through the flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Values flow along edges (entry nodes are the boundary).
    Forward,
    /// Values flow against edges (exit nodes are the boundary).
    Backward,
}

/// The flow relation a fixpoint runs over: explicit predecessor /
/// successor lists, decoupled from `predtop-ir` so the same engine can
/// analyse a data-dependence DAG or a linear execution schedule.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
}

impl FlowGraph {
    /// The data-dependence relation of `graph`: one flow node per IR
    /// node, edges exactly the def→use edges.
    pub fn dag(graph: &Graph) -> FlowGraph {
        let n = graph.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (src, dst) in graph.edges() {
            succs[src.index()].push(dst.0);
            preds[dst.index()].push(src.0);
        }
        FlowGraph { preds, succs }
    }

    /// The linear execution schedule `0 → 1 → … → n−1` (id order *is*
    /// schedule order for `predtop-ir` graphs). This is the flow graph
    /// program-point analyses like liveness run over.
    pub fn chain(n: usize) -> FlowGraph {
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for i in 1..n {
            preds[i].push(i as u32 - 1);
            succs[i - 1].push(i as u32);
        }
        FlowGraph { preds, succs }
    }

    /// Number of flow nodes.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Is the flow graph empty?
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Flow predecessors of `i` under `dir` (the nodes whose outflow
    /// joins into `i`'s inflow).
    fn flow_preds(&self, i: usize, dir: Direction) -> &[u32] {
        match dir {
            Direction::Forward => &self.preds[i],
            Direction::Backward => &self.succs[i],
        }
    }

    /// Flow successors of `i` under `dir`.
    fn flow_succs(&self, i: usize, dir: Direction) -> &[u32] {
        match dir {
            Direction::Forward => &self.succs[i],
            Direction::Backward => &self.preds[i],
        }
    }
}

/// One dataflow analysis: a join-semilattice of values plus a monotone
/// transfer function.
///
/// Laws the engine relies on (asserted by the determinism and
/// convergence tests, spelled out in DESIGN.md §12):
///
/// * `join` is associative, commutative, and idempotent, and returns
///   `true` iff it changed the accumulator;
/// * `transfer` is monotone w.r.t. the join order;
/// * `bottom` is the join identity.
///
/// Under these laws the worklist terminates at the unique least
/// fixpoint regardless of iteration order — fixing the order anyway is
/// what makes the *trace* (and any tie-broken byproducts) reproducible.
pub trait Lattice {
    /// The lattice element attached to every program point.
    type Value: Clone + PartialEq;

    /// Which way values propagate.
    fn direction(&self) -> Direction;

    /// The join identity (initial inflow of non-boundary nodes).
    fn bottom(&self) -> Self::Value;

    /// Initial inflow of boundary nodes (entry nodes forward, exit
    /// nodes backward).
    fn boundary(&self, node: usize) -> Self::Value;

    /// The effect of executing `node` on a value flowing through it.
    fn transfer(&self, node: usize, inflow: &Self::Value) -> Self::Value;

    /// Fold `other` into `acc`; report whether `acc` changed.
    fn join(&self, acc: &mut Self::Value, other: &Self::Value) -> bool;
}

/// The least fixpoint of a [`Lattice`] over a [`FlowGraph`].
#[derive(Debug, Clone)]
pub struct Fixpoint<V> {
    /// Per-node inflow: the join of all flow-predecessor outflows (the
    /// boundary value for boundary nodes).
    pub inflow: Vec<V>,
    /// Per-node outflow: `transfer(node, inflow[node])`.
    pub outflow: Vec<V>,
    /// Transfer applications until the fixpoint was reached. On a DAG
    /// seeded in topological order this is exactly one per node.
    pub steps: usize,
}

/// Run the worklist algorithm to the least fixpoint.
///
/// Deterministic and sequential: seeded in topological order for the
/// lattice's direction, FIFO processing, fixed-order successor pushes.
pub fn solve<L: Lattice>(fg: &FlowGraph, lat: &L) -> Fixpoint<L::Value> {
    let n = fg.len();
    let dir = lat.direction();
    let mut inflow: Vec<L::Value> = (0..n)
        .map(|i| {
            if fg.flow_preds(i, dir).is_empty() {
                lat.boundary(i)
            } else {
                lat.bottom()
            }
        })
        .collect();
    let mut outflow: Vec<Option<L::Value>> = vec![None; n];

    let mut queue: std::collections::VecDeque<usize> = match dir {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    let mut on_list = vec![true; n];
    let mut steps = 0usize;

    while let Some(i) = queue.pop_front() {
        on_list[i] = false;
        let out = lat.transfer(i, &inflow[i]);
        steps += 1;
        if outflow[i].as_ref() == Some(&out) {
            continue;
        }
        for &s in fg.flow_succs(i, dir) {
            let s = s as usize;
            if lat.join(&mut inflow[s], &out) && !on_list[s] {
                on_list[s] = true;
                queue.push_back(s);
            }
        }
        outflow[i] = Some(out);
    }

    Fixpoint {
        inflow,
        outflow: outflow
            .into_iter()
            .map(|v| v.expect("every node visited"))
            .collect(),
        steps,
    }
}

// ---------------------------------------------------------------------
// Bit sets: the workhorse lattice value.
// ---------------------------------------------------------------------

/// A fixed-capacity bit set over `0..n`, the value type of set-based
/// lattices (liveness, reachability). Join = union.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// The empty set with capacity for members `0..n`.
    pub fn empty(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Insert `i`; returns `true` if it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let absent = self.words[w] & b == 0;
        self.words[w] |= b;
        absent
    }

    /// Remove `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        present
    }

    /// Is `i` a member?
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Union `other` in; returns `true` if any bit was added.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w & (1u64 << b) != 0).then_some(wi * 64 + b))
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

// ---------------------------------------------------------------------
// Backward buffer liveness over the execution schedule.
// ---------------------------------------------------------------------

/// Backward liveness of activation buffers over a stage's execution
/// schedule (the [`FlowGraph::chain`] of its nodes in id order).
///
/// Value at program point *i* (`outflow[i]` of the solve) = the buffers
/// live *before* node `i` executes: `gen(i) ∪ (live_after(i) ∖ {i})`,
/// where `gen(i)` is the buffers node `i` reads (its data
/// predecessors) and the exit boundary is the retained set — every
/// buffer the backward pass will need ([`predtop_ir::live`]). Transient
/// buffers (prunable-op outputs) therefore drop out of the live set
/// past their last use, which is exactly the slack the peak bound
/// recovers.
pub struct LiveBuffers<'g> {
    graph: &'g Graph,
    retained: BitSet,
}

impl<'g> LiveBuffers<'g> {
    /// The liveness lattice for `graph`'s schedule.
    pub fn new(graph: &'g Graph) -> LiveBuffers<'g> {
        let mut retained = BitSet::empty(graph.len());
        for id in live::retained_set(graph) {
            retained.insert(id.index());
        }
        LiveBuffers { graph, retained }
    }
}

impl Lattice for LiveBuffers<'_> {
    type Value = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> BitSet {
        BitSet::empty(self.graph.len())
    }

    fn boundary(&self, _node: usize) -> BitSet {
        // live at exit: everything the backward pass reads
        self.retained.clone()
    }

    fn transfer(&self, node: usize, live_after: &BitSet) -> BitSet {
        let mut v = live_after.clone();
        v.remove(node); // the def kills its own buffer going backward
        for p in self.graph.preds(NodeId(node as u32)) {
            v.insert(p.index());
        }
        v
    }

    fn join(&self, acc: &mut BitSet, other: &BitSet) -> bool {
        acc.union_with(other)
    }
}

/// Per-program-point resident sets of `graph`: entry `i` is the set of
/// buffers occupying memory *while node `i` executes* (the buffers live
/// before `i`, plus `i`'s own output being written).
///
/// This is the fixpoint reference for [`peak_resident_bytes`]: `n` sets
/// of `n` bits, so quadratic in the graph size. Production code takes
/// the peak from the interval sweep.
pub fn resident_sets(graph: &Graph) -> Vec<BitSet> {
    let fg = FlowGraph::chain(graph.len());
    let lat = LiveBuffers::new(graph);
    let fix = solve(&fg, &lat);
    fix.outflow
        .into_iter()
        .enumerate()
        .map(|(i, mut live_in)| {
            live_in.insert(i);
            live_in
        })
        .collect()
}

/// The peak-over-live-sets memory bound: the maximum, over all program
/// points, of the summed `weights` of the resident buffer set. Returns
/// `(peak_bytes, argmax_point)` with the first point reaching the peak;
/// `(0, 0)` for an empty graph.
///
/// Node ids are a topological schedule, so buffer `j` is resident on
/// exactly the points `j..=end_j`: `end_j` is the last point for a
/// retained buffer and [`live::last_use`] for a transient one. One
/// sweep adds `weights[j]` at point `j` and drops it after `end_j`;
/// the running sum at each point is that point's [`resident_sets`]
/// total, bit for bit, in `O(n + edges)`.
///
/// With `weights = sim::memory::activation_profile(graph, plan)` this
/// is a liveness-tight replacement for the retain-everything
/// `activations` sum: every resident set is a subset of all nodes, so
/// the peak is provably ≤ the sum, and it is still sound because the
/// retained boundary keeps every backward-pass input in scope.
pub fn peak_resident_bytes(graph: &Graph, weights: &[u64]) -> (u64, usize) {
    assert_eq!(weights.len(), graph.len(), "one weight per node");
    let last = graph.len().saturating_sub(1);
    // freed[p]: the bytes whose buffers die right after point p
    let mut freed = vec![0u64; graph.len()];
    for (j, &w) in weights.iter().enumerate() {
        let id = NodeId(j as u32);
        let end = if live::is_transient(graph, id) {
            live::last_use(graph, id).index()
        } else {
            last
        };
        freed[end] += w;
    }
    let mut resident = 0u64;
    let mut best = (0u64, 0usize);
    for (i, &w) in weights.iter().enumerate() {
        resident += w;
        if resident > best.0 {
            best = (resident, i);
        }
        resident -= freed[i];
    }
    best
}

// ---------------------------------------------------------------------
// The liveness graph pass (P05xx block).
// ---------------------------------------------------------------------

/// `liveness` — reports the peak-resident activation footprint of the
/// graph's schedule versus the retain-everything sum (`P0501`, info).
///
/// The serial, unsharded footprint is a property of the graph alone, so
/// this runs as a graph pass; the plan-aware variant of the same bound
/// feeds the `P1401` memory-fit rule via `stage_memory_liveness_bound`.
pub struct LivenessPass;

impl GraphPass for LivenessPass {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn description(&self) -> &'static str {
        "peak resident activation bytes over the execution schedule"
    }

    fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        let weights = serial_activation_weights(graph);
        let sum: u64 = weights.iter().sum();
        if sum == 0 {
            return Vec::new();
        }
        let (peak, at) = peak_resident_bytes(graph, &weights);
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

/// Serial (unsharded) activation weights: what each node's buffer
/// occupies with `dp = mp = 1`. Mirrors `sim::memory`'s accounting —
/// operator outputs and the stage's incoming activation count, weights
/// and bookkeeping nodes do not — without needing an `IntraPlan`.
pub fn serial_activation_weights(graph: &Graph) -> Vec<u64> {
    use predtop_ir::NodeKind;
    graph
        .nodes()
        .iter()
        .map(|node| match node.kind {
            NodeKind::Input
                if node.dtype.is_float() && node.id.index() == 0 && node.shape.rank() == 2 =>
            {
                node.output_bytes()
            }
            NodeKind::Operator(_) => node.output_bytes(),
            _ => 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_ir::{DType, GraphBuilder, NodeId, OpKind, Shape};

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
        let as_vecs: Vec<Vec<usize>> = sets.iter().map(|s| s.iter().collect()).collect();
        // retained = {0,2,3,4,5}; transient reshape 1 dies after node 3
        assert_eq!(as_vecs[0], vec![0]);
        assert_eq!(as_vecs[1], vec![0, 1]);
        assert_eq!(as_vecs[2], vec![0, 1, 2]);
        assert_eq!(as_vecs[3], vec![0, 1, 2, 3]);
        assert_eq!(as_vecs[4], vec![0, 2, 3, 4], "reshape buffer freed");
        assert_eq!(as_vecs[5], vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn peak_is_below_sum_when_transients_die() {
        let g = diamond();
        let weights = serial_activation_weights(&g);
        let sum: u64 = weights.iter().sum();
        let (peak, _) = peak_resident_bytes(&g, &weights);
        assert!(peak > 0);
        assert!(
            peak < sum,
            "transient reshape must create slack: {peak} vs {sum}"
        );
    }

    #[test]
    fn dag_solve_converges_in_one_sweep() {
        // forward reaching-roots analysis over the data-dependence DAG
        struct Roots<'g> {
            graph: &'g Graph,
        }
        impl Lattice for Roots<'_> {
            type Value = BitSet;
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn bottom(&self) -> BitSet {
                BitSet::empty(self.graph.len())
            }
            fn boundary(&self, _n: usize) -> BitSet {
                BitSet::empty(self.graph.len())
            }
            fn transfer(&self, node: usize, inflow: &BitSet) -> BitSet {
                let mut v = inflow.clone();
                if self.graph.preds(NodeId(node as u32)).is_empty() {
                    v.insert(node);
                }
                v
            }
            fn join(&self, acc: &mut BitSet, other: &BitSet) -> bool {
                acc.union_with(other)
            }
        }

        let g = diamond();
        let fg = FlowGraph::dag(&g);
        let fix = solve(&fg, &Roots { graph: &g });
        // topological seeding: exactly one transfer per node
        assert_eq!(fix.steps, g.len());
        // every node is reached by root 0
        for i in 0..g.len() {
            assert!(fix.outflow[i].contains(0), "node {i} misses root 0");
        }
    }

    #[test]
    fn solve_is_reproducible() {
        let g = diamond();
        let fg = FlowGraph::chain(g.len());
        let lat = LiveBuffers::new(&g);
        let a = solve(&fg, &lat);
        let b = solve(&fg, &lat);
        assert_eq!(a.outflow, b.outflow);
        assert_eq!(a.inflow, b.inflow);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::empty(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        let mut t = BitSet::empty(130);
        t.insert(64);
        assert!(s.union_with(&t));
        assert!(!s.union_with(&t));
        assert!(s.remove(64));
        assert!(!s.remove(64));
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
