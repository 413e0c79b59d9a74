//! Structural-key interning for (stage, sub-mesh, configuration)
//! latency sub-problems, and the one stage-graph store keyed on the
//! same structure.
//!
//! The inter-stage engine enumerates every contiguous layer range of the
//! model, but most ranges build *isomorphic* operator graphs: an
//! interior `[1, 3)` slice of a dense decoder is the same two-layer
//! stage graph as `[2, 4)`, so a latency provider that is a pure
//! function of the stage graph (the simulator, the analytic model, a
//! graph-fed predictor) returns bit-identical seconds for both. A
//! memoization layer keyed on the raw [`StageSpec`] misses that sharing
//! entirely — each of the `L·(L+1)/2` ranges is a distinct key even
//! though only `O(L)` structures exist.
//!
//! [`StageStructure`] canonicalizes exactly the inputs the stage graph
//! builder reads (model hyper-parameters, the window's dense/MoE layer
//! signature, whether the window carries the embedding or the LM head);
//! [`StructuralDescriptor`] adds the placement (sub-mesh shape and
//! sharding configuration), and [`StructuralInterner`] maps each
//! distinct descriptor to a small dense [`StructuralKey`]. Two
//! sub-problems receive the same key **iff** their stage graphs are
//! equal and their placements equal — so a cache keyed on
//! [`StructuralKey`] answers `[2, 4)` from the `[1, 3)` evaluation. The
//! structure is deliberately *minimal*: fields the window's graph never
//! reads (the vocabulary when the window has neither embedding nor
//! head, expert widths when no window layer is MoE, the dense FFN
//! multiple when every window layer is MoE) are normalized away so
//! equality is exact, not merely sound.
//!
//! [`StageGraphs`] holds one shared stage graph per [`StageStructure`].
//! The simulator owns the one store (`predtop-sim`'s
//! `SimProfiler::graphs`) and the static-legality filter borrows it, so
//! a checked search builds each structure's graph once for legality,
//! profiling and the ground-truth re-evaluation together.
//!
//! Key identity is assigned in first-intern order, and each class
//! remembers the sub-problem that interned it first (its
//! [`representative`](StructuralInterner::representative)). The search
//! engine warms the interner serially over its canonical candidate
//! work-list (see `predtop-core::search_plan_service`) before any
//! parallel evaluation, so key numbering and representatives are a pure
//! function of the work-list — identical at any thread count and across
//! runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use predtop_ir::Graph;
use predtop_models::StageSpec;
use predtop_store::ByteWriter;

use crate::config::{MeshShape, ParallelConfig};

/// Widest stage window (in transformer layers) whose dense/MoE
/// signature fits the structure's bitmask. Wider windows fall back to
/// raw-identity keying (sound, merely shares nothing); no benchmark
/// model comes near this.
pub const MAX_MASK_LAYERS: usize = 128;

/// Canonical structural identity of one stage window: everything the
/// stage graph builder reads, and nothing else. Pure function of the
/// stage; stages with equal structures build equal graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageStructure {
    // -- model hyper-parameters every window layer reads --
    batch: usize,
    seq_len: usize,
    hidden: usize,
    num_heads: usize,
    /// Vocabulary size, or 0 when the window carries neither the
    /// embedding nor the LM head (the only ops that read it).
    vocab: usize,
    /// Dense FFN multiple, or 0 when every window layer is MoE (no
    /// dense FFN is built).
    ffn_mult: usize,
    /// `(num_experts, expert_hidden)` when at least one window layer is
    /// MoE; `None` otherwise (expert widths are never read).
    experts: Option<(usize, usize)>,
    // -- window shape --
    /// Number of transformer layers in the window.
    window: usize,
    /// Bit `i` set ⇔ window layer `i` (absolute layer `start + i`) is
    /// MoE. Zero for windows wider than [`MAX_MASK_LAYERS`];
    /// `raw_window` then keys the exact range instead.
    moe_mask: u128,
    /// `Some((start, end, every))` only in the >[`MAX_MASK_LAYERS`]
    /// fallback, degrading equality to raw range identity. `every` is
    /// the model's MoE interleave (0 when dense): with the range it
    /// places the MoE layers the mask would have recorded.
    raw_window: Option<(usize, usize, usize)>,
    has_embedding: bool,
    has_head: bool,
}

impl StageStructure {
    /// Canonicalize one stage window.
    pub fn of(stage: &StageSpec) -> StageStructure {
        let m = &stage.model;
        let window = stage.num_layers();
        let (moe_mask, raw_window) = if window <= MAX_MASK_LAYERS {
            let mut mask = 0u128;
            for (i, layer) in (stage.start..stage.end).enumerate() {
                if m.is_moe_layer(layer) {
                    mask |= 1 << i;
                }
            }
            (mask, None)
        } else {
            let every = m.moe.map_or(0, |s| s.every);
            (0, Some((stage.start, stage.end, every)))
        };
        let all_moe =
            raw_window.is_none() && window > 0 && (0..window).all(|i| moe_mask & (1 << i) != 0);
        let any_moe = moe_mask != 0 || raw_window.is_some() && m.moe.is_some();
        let has_embedding = stage.has_embedding();
        let has_head = stage.has_head();
        StageStructure {
            batch: m.batch,
            seq_len: m.seq_len,
            hidden: m.hidden,
            num_heads: m.num_heads,
            vocab: if has_embedding || has_head {
                m.vocab
            } else {
                0
            },
            ffn_mult: if all_moe { 0 } else { m.ffn_mult },
            experts: match (any_moe, m.moe) {
                (true, Some(s)) => Some((s.num_experts, s.expert_hidden)),
                _ => None,
            },
            window,
            moe_mask,
            raw_window,
            has_embedding,
            has_head,
        }
    }

    /// Append this structure's fields to `w`, in declaration order.
    fn write(&self, w: &mut ByteWriter) {
        w.usize(self.batch);
        w.usize(self.seq_len);
        w.usize(self.hidden);
        w.usize(self.num_heads);
        w.usize(self.vocab);
        w.usize(self.ffn_mult);
        match self.experts {
            None => w.u8(0),
            Some((n, h)) => {
                w.u8(1);
                w.usize(n);
                w.usize(h);
            }
        }
        w.usize(self.window);
        w.u128(self.moe_mask);
        match self.raw_window {
            None => w.u8(0),
            Some((s, e, every)) => {
                w.u8(1);
                w.usize(s);
                w.usize(e);
                // written for MoE models only, so dense windows keep
                // their store keys
                if every != 0 {
                    w.usize(every);
                }
            }
        }
        w.bool(self.has_embedding);
        w.bool(self.has_head);
    }
}

/// Canonical structural identity of one latency sub-problem: the
/// [`StageStructure`] plus the placement. Pure function of the
/// `(stage, mesh, config)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructuralDescriptor {
    stage: StageStructure,
    mesh: MeshShape,
    config: ParallelConfig,
}

impl StructuralDescriptor {
    /// Canonicalize one sub-problem.
    pub fn of(stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> StructuralDescriptor {
        StructuralDescriptor {
            stage: StageStructure::of(stage),
            mesh,
            config,
        }
    }

    /// Versioned canonical byte encoding of this descriptor — the basis
    /// of persistent store keys (`predtop-store` addresses latency
    /// objects by the digest of these bytes plus a namespace).
    ///
    /// Unlike [`crate::StructuralKey`] ids, which are dense
    /// first-intern-order numbers and therefore differ between runs,
    /// this encoding is a pure function of the descriptor's fields: the
    /// same sub-problem produces the same bytes in every process, at
    /// every thread count. The leading version byte lets future field
    /// changes re-key the store instead of misreading old objects.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(1); // descriptor encoding version
        self.stage.write(&mut w);
        w.usize(self.mesh.nodes);
        w.usize(self.mesh.gpus_per_node);
        w.usize(self.config.dp);
        w.usize(self.config.mp);
        w.into_bytes()
    }
}

/// One shared stage graph per [`StageStructure`].
///
/// A graph is built on first use, outside the lock; when two threads
/// race to build the same structure, the first insert wins and both
/// get that graph. Structurally equal stages build equal graphs, so
/// which stage of a class built the shared graph changes nothing
/// downstream.
#[derive(Default)]
pub struct StageGraphs {
    graphs: Mutex<HashMap<StageStructure, Arc<Graph>>>,
}

impl StageGraphs {
    /// An empty store.
    pub fn new() -> StageGraphs {
        StageGraphs::default()
    }

    /// The graph of `stage`'s structure, built on first use.
    pub fn get(&self, stage: &StageSpec) -> Arc<Graph> {
        let key = StageStructure::of(stage);
        if let Some(g) = self.graphs.lock().get(&key) {
            return Arc::clone(g);
        }
        let g = Arc::new(stage.build_graph());
        Arc::clone(self.graphs.lock().entry(key).or_insert(g))
    }

    /// Number of stage structures whose graph is held.
    pub fn len(&self) -> usize {
        self.graphs.lock().len()
    }

    /// True when no graph has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interned handle of one structural equivalence class: a small dense
/// id. Keys from the *same* interner are equal **iff** their
/// sub-problems are structurally equal; keys from different interners
/// are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructuralKey(u32);

impl StructuralKey {
    /// The key's dense id (0-based in first-intern order).
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Traffic counters of a [`StructuralInterner`], snapshot at any point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternStats {
    /// [`StructuralInterner::intern`] calls observed.
    pub lookups: usize,
    /// Distinct structural classes in the table.
    pub distinct: usize,
}

impl InternStats {
    /// Fraction of lookups that re-used an existing class (0 when
    /// idle) — the structural sharing a key-level cache can exploit.
    pub fn reuse_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            1.0 - self.distinct as f64 / self.lookups as f64
        }
    }
}

/// One (stage, sub-mesh, configuration) sub-problem.
pub type SubProblem = (StageSpec, MeshShape, ParallelConfig);

/// The interner's table: descriptor → dense id, and per id the
/// sub-problem that interned the class first.
#[derive(Debug, Default)]
struct Table {
    ids: HashMap<StructuralDescriptor, u32>,
    representatives: Vec<SubProblem>,
}

/// Hash-consing interner from sub-problems to [`StructuralKey`]s.
///
/// Thread-safe: `intern` may be called concurrently (one mutex guards
/// the table; interning is a hash + short critical section, far cheaper
/// than any latency evaluation it deduplicates). Key numbering and
/// representatives follow first-intern order — warm the interner
/// serially (see [`StructuralInterner::warm`]) when they must not
/// depend on the thread count.
#[derive(Debug, Default)]
pub struct StructuralInterner {
    table: Mutex<Table>,
    lookups: AtomicUsize,
}

impl StructuralInterner {
    /// An empty interner.
    pub fn new() -> StructuralInterner {
        StructuralInterner::default()
    }

    /// Key of `(stage, mesh, config)`'s structural class, interning a
    /// fresh class if this structure is new. Counts toward
    /// [`InternStats::lookups`].
    pub fn intern(
        &self,
        stage: &StageSpec,
        mesh: MeshShape,
        config: ParallelConfig,
    ) -> StructuralKey {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.resolve((*stage, mesh, config))
    }

    /// Pre-assign `(stage, mesh, config)`'s key without counting a
    /// lookup. The search engine calls this serially over its canonical
    /// work-list before parallel evaluation, making key numbering a
    /// pure function of the work-list (and [`InternStats::lookups`] an
    /// exact count of evaluation-time queries).
    pub fn warm(
        &self,
        stage: &StageSpec,
        mesh: MeshShape,
        config: ParallelConfig,
    ) -> StructuralKey {
        self.resolve((*stage, mesh, config))
    }

    fn resolve(&self, p: SubProblem) -> StructuralKey {
        let d = StructuralDescriptor::of(&p.0, p.1, p.2);
        let mut table = self.table.lock();
        let Table {
            ids,
            representatives,
        } = &mut *table;
        let id = *ids.entry(d).or_insert_with(|| {
            representatives.push(p);
            u32::try_from(representatives.len() - 1).expect("fewer than 2^32 structural classes")
        });
        StructuralKey(id)
    }

    /// The sub-problem that interned (or warmed) `key`'s class first.
    /// A latency source that is a pure function of structure answers
    /// it exactly as it answers any other member of the class.
    pub fn representative(&self, key: StructuralKey) -> SubProblem {
        self.table.lock().representatives[key.0 as usize]
    }

    /// Number of distinct structural classes interned so far.
    pub fn len(&self) -> usize {
        self.table.lock().representatives.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup/distinct counters accumulated since construction.
    pub fn stats(&self) -> InternStats {
        InternStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            distinct: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_models::ModelSpec;

    fn tiny(num_layers: usize) -> ModelSpec {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.seq_len = 32;
        m.hidden = 32;
        m.num_heads = 4;
        m.vocab = 64;
        m.num_layers = num_layers;
        m
    }

    #[test]
    fn canonical_bytes_track_descriptor_equality() {
        let m = tiny(8);
        let mesh = MeshShape::new(1, 2);
        let cfg = ParallelConfig::new(1, 2);
        let a = StructuralDescriptor::of(&StageSpec::new(m, 1, 3), mesh, cfg);
        let b = StructuralDescriptor::of(&StageSpec::new(m, 2, 4), mesh, cfg);
        let c = StructuralDescriptor::of(&StageSpec::new(m, 0, 2), mesh, cfg);
        // isomorphic interior windows share bytes; the embedding window
        // does not.
        assert_eq!(a, b);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
        // Pinned digest: these bytes key on-disk latency objects, so an
        // accidental change to the encoding (or to the shared hasher)
        // must fail loudly, not silently orphan every stored object.
        assert_eq!(
            predtop_store::hash::digest_bytes(&a.canonical_bytes()).to_hex(),
            "6bac9a02dd0ccdbf5c9f1e6b251af520"
        );
    }

    fn key(interner: &StructuralInterner, m: ModelSpec, start: usize, end: usize) -> StructuralKey {
        interner.intern(
            &StageSpec::new(m, start, end),
            MeshShape::new(1, 2),
            ParallelConfig::new(1, 2),
        )
    }

    #[test]
    fn interior_dense_windows_of_equal_length_share_a_key() {
        let i = StructuralInterner::new();
        let m = tiny(6);
        assert_eq!(key(&i, m, 1, 3), key(&i, m, 2, 4));
        assert_eq!(key(&i, m, 1, 3), key(&i, m, 3, 5));
        // boundary windows differ from interior ones
        assert_ne!(key(&i, m, 0, 2), key(&i, m, 1, 3), "embedding differs");
        assert_ne!(key(&i, m, 4, 6), key(&i, m, 1, 3), "head differs");
        // and so do lengths
        assert_ne!(key(&i, m, 1, 4), key(&i, m, 1, 3));
        assert_eq!(i.len(), 4);
        assert_eq!(i.stats().lookups, 10);
        assert!((i.stats().reuse_rate() - 6.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn placement_is_part_of_the_key() {
        let i = StructuralInterner::new();
        let m = tiny(6);
        let s = StageSpec::new(m, 1, 3);
        let a = i.intern(&s, MeshShape::new(1, 2), ParallelConfig::new(1, 2));
        let b = i.intern(&s, MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        let c = i.intern(&s, MeshShape::new(2, 2), ParallelConfig::new(2, 2));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn moe_parity_splits_interior_classes() {
        let i = StructuralInterner::new();
        let mut m = ModelSpec::moe_2p6b(2);
        m.seq_len = 32;
        m.hidden = 32;
        m.num_heads = 4;
        m.vocab = 64;
        m.num_layers = 8;
        // same length, same parity: layers {1,2} and {3,4} both start
        // on a dense layer followed by an MoE layer
        assert_eq!(key(&i, m, 1, 3), key(&i, m, 3, 5));
        // same length, opposite parity: {1,2} vs {2,3}
        assert_ne!(key(&i, m, 1, 3), key(&i, m, 2, 4));
    }

    #[test]
    fn irrelevant_hyperparameters_are_normalized_away() {
        let i = StructuralInterner::new();
        // vocab is read only by the embedding and the LM head
        let mut a = tiny(6);
        let mut b = tiny(6);
        b.vocab = 4096;
        assert_eq!(
            key(&i, a, 2, 4),
            key(&i, b, 2, 4),
            "interior window never reads vocab"
        );
        assert_ne!(key(&i, a, 0, 2), key(&i, b, 0, 2), "embedding reads vocab");
        assert_ne!(key(&i, a, 4, 6), key(&i, b, 4, 6), "head reads vocab");
        // expert widths are read only by MoE layers
        let mut ma = ModelSpec::moe_2p6b(2);
        ma.num_layers = 8;
        let mut mb = ma;
        mb.moe.as_mut().unwrap().expert_hidden = 512;
        // layers {2} — dense under the every-2 interleave
        assert_eq!(
            key(&i, ma, 2, 3),
            key(&i, mb, 2, 3),
            "dense window never reads expert width"
        );
        assert_ne!(
            key(&i, ma, 1, 2),
            key(&i, mb, 1, 2),
            "MoE window reads expert width"
        );
        // the dense FFN multiple is read only by dense layers
        a.ffn_mult = 4;
        b = a;
        b.vocab = a.vocab;
        b.ffn_mult = 8;
        assert_ne!(key(&i, a, 2, 4), key(&i, b, 2, 4));
        let mut moe_only_a = ma;
        let mut moe_only_b = ma;
        moe_only_a.ffn_mult = 4;
        moe_only_b.ffn_mult = 8;
        // window {1} is purely MoE: no dense FFN is built
        assert_eq!(key(&i, moe_only_a, 1, 2), key(&i, moe_only_b, 1, 2));
    }

    #[test]
    fn windows_past_the_mask_key_the_moe_interleave() {
        // past MAX_MASK_LAYERS the raw range alone does not say which
        // window layers are MoE
        let mut a = ModelSpec::moe_2p6b(2);
        a.seq_len = 8;
        a.hidden = 8;
        a.num_heads = 2;
        a.vocab = 16;
        a.num_layers = MAX_MASK_LAYERS + 2;
        let mut b = a;
        a.moe.as_mut().unwrap().every = 1;
        b.moe.as_mut().unwrap().every = 2;
        let sa = StageSpec::new(a, 0, a.num_layers);
        let sb = StageSpec::new(b, 0, b.num_layers);
        assert_ne!(sa.build_graph(), sb.build_graph());
        assert_ne!(StageStructure::of(&sa), StageStructure::of(&sb));
    }

    #[test]
    fn model_depth_outside_the_window_is_irrelevant() {
        let i = StructuralInterner::new();
        // an interior 2-layer dense window is the same graph whether the
        // model has 6 or 10 layers
        assert_eq!(key(&i, tiny(6), 1, 3), key(&i, tiny(10), 5, 7));
        // but head-carrying windows differ from interior ones even when
        // the window range literally matches
        assert_ne!(key(&i, tiny(6), 4, 6), key(&i, tiny(10), 4, 6));
    }

    #[test]
    fn the_first_sub_problem_of_a_class_represents_it() {
        let i = StructuralInterner::new();
        let m = tiny(6);
        let (mesh, config) = (MeshShape::new(1, 2), ParallelConfig::new(1, 2));
        let first = i.warm(&StageSpec::new(m, 2, 4), mesh, config);
        let again = i.intern(&StageSpec::new(m, 1, 3), mesh, config);
        assert_eq!(first, again);
        assert_eq!(
            i.representative(again),
            (StageSpec::new(m, 2, 4), mesh, config)
        );
    }

    #[test]
    fn warm_then_intern_is_stable_and_lookup_accounting_is_exact() {
        let i = StructuralInterner::new();
        let m = tiny(6);
        let warmed = key_list(&i, m, true);
        assert_eq!(i.stats().lookups, 0, "warming counts no lookups");
        let interned = key_list(&i, m, false);
        assert_eq!(warmed, interned, "warm pre-assigns the same keys");
        assert_eq!(i.stats().lookups, interned.len());
        assert_eq!(i.stats().distinct, i.len());
    }

    fn key_list(i: &StructuralInterner, m: ModelSpec, warm: bool) -> Vec<StructuralKey> {
        let mut out = Vec::new();
        for start in 0..m.num_layers {
            for end in start + 1..=m.num_layers {
                let s = StageSpec::new(m, start, end);
                let mesh = MeshShape::new(1, 2);
                let c = ParallelConfig::new(2, 1);
                out.push(if warm {
                    i.warm(&s, mesh, c)
                } else {
                    i.intern(&s, mesh, c)
                });
            }
        }
        out
    }

    #[test]
    fn stage_graphs_share_one_graph_per_structure() {
        let m = tiny(6);
        let graphs = StageGraphs::new();
        let interior = graphs.get(&StageSpec::new(m, 1, 3));
        for start in [2, 3] {
            let g = graphs.get(&StageSpec::new(m, start, start + 2));
            assert!(Arc::ptr_eq(&g, &interior), "[{start}..) built again");
        }
        assert_eq!(graphs.len(), 1);
        // the shared graph is the one every member would build
        assert_eq!(*interior, StageSpec::new(m, 3, 5).build_graph());
        let embedding = graphs.get(&StageSpec::new(m, 0, 2));
        assert!(!Arc::ptr_eq(&embedding, &interior));
        assert_eq!(graphs.len(), 2);
    }

    use predtop_models::MoeSpec;
    use proptest::prelude::*;

    /// One model from a small hyper-parameter pool: indices select
    /// values so the proptest arguments stay plain integers.
    fn pooled_model(
        hidden_i: usize,
        heads_i: usize,
        vocab_i: usize,
        ffn_i: usize,
        moe_i: usize,
        layers: usize,
    ) -> ModelSpec {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.seq_len = 16;
        m.hidden = [16, 32][hidden_i];
        m.num_heads = [2, 4][heads_i];
        m.vocab = [32, 64][vocab_i];
        m.ffn_mult = [2, 4][ffn_i];
        m.num_layers = layers;
        // distinct (num_experts, expert_hidden) per option, so expert
        // widths never collide across interleaves
        m.moe = match moe_i {
            0 => None,
            1 => Some(MoeSpec {
                num_experts: 2,
                expert_hidden: 16,
                every: 1,
            }),
            2 => Some(MoeSpec {
                num_experts: 4,
                expert_hidden: 32,
                every: 2,
            }),
            _ => Some(MoeSpec {
                num_experts: 2,
                expert_hidden: 32,
                every: 3,
            }),
        };
        m
    }

    fn clamp_window(start: usize, len: usize, layers: usize) -> (usize, usize) {
        let end = (start + len).min(layers);
        (start.min(end - 1), end)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The tentpole soundness/completeness property: two
        /// sub-problems intern to the same key **iff** their stage
        /// graphs are equal, with `Graph` equality (`==`) of the
        /// actually-built graphs as the oracle — equal keys must mean
        /// identical graphs, which [`StageGraphs`] sharing one graph per
        /// structure relies on. Random model pair (equal or differing in
        /// one pool dimension) × random layer windows.
        #[test]
        fn key_equality_matches_graph_structural_equality(
            hidden_i in 0usize..2,
            heads_i in 0usize..2,
            vocab_i in 0usize..2,
            ffn_i in 0usize..2,
            moe_i in 0usize..4,
            layers in 1usize..=10,
            a_start in 0usize..10,
            a_len in 1usize..=10,
            b_start in 0usize..10,
            b_len in 1usize..=10,
            b_hidden_i in 0usize..2,
            b_moe_i in 0usize..4,
            cross_model in 0usize..3,
        ) {
            let ma = pooled_model(hidden_i, heads_i, vocab_i, ffn_i, moe_i, layers);
            // usually the same model (windows then share structure
            // often); sometimes vary one pool dimension for negative
            // cross-model cases
            let mb = match cross_model {
                0 => pooled_model(b_hidden_i, heads_i, vocab_i, ffn_i, moe_i, layers),
                1 => pooled_model(hidden_i, heads_i, vocab_i, ffn_i, b_moe_i, layers),
                _ => ma,
            };
            let (a_start, a_end) = clamp_window(a_start, a_len, layers);
            let (b_start, b_end) = clamp_window(b_start, b_len, layers);
            let sa = StageSpec::new(ma, a_start, a_end);
            let sb = StageSpec::new(mb, b_start, b_end);

            let interner = StructuralInterner::new();
            let mesh = MeshShape::new(1, 2);
            let config = ParallelConfig::new(1, 2);
            let ka = interner.intern(&sa, mesh, config);
            let kb = interner.intern(&sb, mesh, config);

            let equal_graphs = sa.build_graph() == sb.build_graph();
            prop_assert_eq!(
                ka == kb,
                equal_graphs,
                "key equality ({:?} vs {:?}) disagrees with graph equality \
                 for windows [{}..{}) of {:?} and [{}..{}) of {:?}",
                ka, kb, a_start, a_end, ma, b_start, b_end, mb
            );
        }

        /// Warm-then-intern key assignment is a pure function of the
        /// canonical work-list: concurrent lookups at any thread count
        /// reproduce the serial reference ids exactly and intern
        /// nothing new.
        #[test]
        fn interner_ids_are_identical_across_thread_counts(
            hidden_i in 0usize..2,
            moe_i in 0usize..4,
            layers in 1usize..=8,
        ) {
            let m = pooled_model(hidden_i, 0, 0, 0, moe_i, layers);
            let mesh = MeshShape::new(1, 2);
            let config = ParallelConfig::new(2, 1);
            let stages: Vec<StageSpec> = (0..layers)
                .flat_map(|start| {
                    (start + 1..=layers).map(move |end| StageSpec::new(m, start, end))
                })
                .collect();

            let reference = StructuralInterner::new();
            let reference_ids: Vec<u32> = stages
                .iter()
                .map(|s| reference.warm(s, mesh, config).id())
                .collect();

            for threads in [1usize, 4, 8] {
                let i = StructuralInterner::new();
                // the engine's serial warm pass over the canonical list
                for s in &stages {
                    i.warm(s, mesh, config);
                }
                let distinct = i.len();
                // then concurrent evaluation-time lookups
                let ids: Vec<u32> = predtop_runtime::par_map_with(
                    stages.clone(),
                    threads,
                    |s| i.intern(&s, mesh, config).id(),
                );
                prop_assert_eq!(
                    &ids, &reference_ids,
                    "ids diverged at {} threads", threads
                );
                prop_assert_eq!(i.len(), distinct, "lookups interned new classes");
                prop_assert_eq!(i.stats().lookups, stages.len());
            }
        }
    }
}
