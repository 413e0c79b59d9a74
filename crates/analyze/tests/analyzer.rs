//! Integration tests: builder-valid graphs lint clean (property), the
//! JSON renderer's schema is frozen (golden file), the benchmark models
//! are clean at every thread count, and the `predtop-lint` CLI's exit
//! codes and plan-file fixes hold.

use proptest::prelude::*;

use predtop_analyze::plan_passes::{stage_memory_liveness_bound, stage_memory_lower_bound};
use predtop_analyze::{
    analyze_graph, analyze_graph_with_threads, analyze_plan_with_threads, has_errors, render_json,
    resident_sets, sort_diagnostics, PlanCheckOptions, Severity,
};
use predtop_cluster::GpuSpec;
use predtop_ir::{live, DType, Graph, GraphBuilder, NodeId, NodeKind, OpKind, Shape};
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{MeshShape, ParallelConfig, PipelinePlan, PlannedStage};
use predtop_service::api::{decode_plan, encode_plan};
use predtop_sim::memory::{fits_on, MemoryEstimate, MemorySummary};

// ---- property: valid builder graphs have zero Error findings --------

/// Random graphs assembled only from rule-respecting pieces: same-shape
/// elementwise chains, `dot`s with a declared contracted size, and
/// shape-shrinking reductions, all in one dtype. Dead nodes happen
/// naturally (only the last value is an output) — they must surface as
/// warnings, never errors.
fn arb_clean_graph() -> impl Strategy<Value = Graph> {
    (2usize..30, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let first = b.input(Shape::from([4, 4]), DType::F32);
        // ids of nodes carrying the canonical [4, 4] shape
        let mut ids = vec![first];
        for _ in 1..n {
            let a = ids[rng.gen_range(0..ids.len())];
            let c = ids[rng.gen_range(0..ids.len())];
            let id = match rng.gen_range(0..5) {
                0 => b.input(Shape::from([4, 4]), DType::F32),
                1 => b.binary(OpKind::Add, a, c),
                2 => b.binary(OpKind::Mul, a, c),
                3 => b.unary(OpKind::Tanh, a),
                _ => b.dot(a, c, Shape::from([4, 4]), DType::F32, 4),
            };
            ids.push(id);
        }
        let last = *ids.last().unwrap();
        b.finish(&[last]).unwrap()
    })
}

proptest! {
    #[test]
    fn prop_builder_valid_graphs_have_no_errors(g in arb_clean_graph()) {
        let diags = analyze_graph(&g);
        for d in &diags {
            prop_assert!(
                d.severity != Severity::Error,
                "false positive {} on a rule-respecting graph: {}",
                d.code,
                d.message
            );
        }
    }

    #[test]
    fn prop_report_is_thread_count_invariant(g in arb_clean_graph()) {
        let one = analyze_graph_with_threads(&g, 1);
        let four = analyze_graph_with_threads(&g, 4);
        let eight = analyze_graph_with_threads(&g, 8);
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(&four, &eight);
    }
}

// ---- property: the interval sweep equals the resident-set peak -----

/// Random graphs whose buffers do die: besides inputs and compute ops
/// they draw the four prunable ops (`Reshape`, `ConvertElementType`,
/// `Copy`, `StopGradient`), whose outputs are transient, and end in one
/// to three outputs. Each node gets a weight in `0..4`, so zero weights
/// and tied peaks are common.
fn arb_liveness_graph() -> impl Strategy<Value = (Graph, Vec<u64>)> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let mut ids = vec![b.input(Shape::from([4, 4]), DType::F32)];
        for _ in 1..n {
            let a = ids[rng.gen_range(0..ids.len())];
            let c = ids[rng.gen_range(0..ids.len())];
            let id = match rng.gen_range(0..8) {
                0 => b.input(Shape::from([4, 4]), DType::F32),
                1 => b.binary(OpKind::Add, a, c),
                2 => b.unary(OpKind::Tanh, a),
                3 => b.op(OpKind::Reshape, &[a], Shape::from([2, 8]), DType::F32),
                4 => b.op(
                    OpKind::ConvertElementType,
                    &[a],
                    Shape::from([4, 4]),
                    DType::F16,
                ),
                5 => b.unary(OpKind::Copy, a),
                6 => b.unary(OpKind::StopGradient, a),
                _ => b.dot(a, c, Shape::from([4, 4]), DType::F32, 4),
            };
            ids.push(id);
        }
        let outputs: Vec<_> = (0..rng.gen_range(1..=3))
            .map(|_| ids[rng.gen_range(0..ids.len())])
            .collect();
        let g = b.finish(&outputs).unwrap();
        let weights = (0..g.len()).map(|_| rng.gen_range(0..4u64)).collect();
        (g, weights)
    })
}

/// The peak as the liveness fixpoint over the schedule defines it (the
/// sets [`resident_sets`] scans out): the first point whose resident set
/// weighs strictly the most.
fn fixpoint_peak(g: &Graph, weights: &[u64]) -> (u64, usize) {
    let mut best = (0u64, 0usize);
    for (i, set) in resident_sets(g).iter().enumerate() {
        let bytes: u64 = set.iter().map(|&j| weights[j]).sum();
        if bytes > best.0 {
            best = (bytes, i);
        }
    }
    best
}

proptest! {
    /// `MemorySummary`'s sweep runs over live intervals; it must return
    /// the fixpoint reference's `(bytes, point)`, tie-break included.
    #[test]
    fn prop_peak_sweep_matches_the_fixpoint((g, weights) in arb_liveness_graph()) {
        prop_assert_eq!(MemorySummary::of(&g).peak(&weights), fixpoint_peak(&g, &weights));
    }
}

/// The same parity on real stage graphs: a few hundred nodes each, and
/// every prunable op the model builders emit, under the serial weights
/// `P0501` sweeps.
#[test]
fn peak_sweep_matches_the_fixpoint_on_benchmark_stages() {
    for model in [ModelSpec::gpt3_1p3b(8), ModelSpec::moe_2p6b(8)] {
        let g = StageSpec::new(model, 1, 3).build_graph();
        assert!(
            g.nodes().iter().any(|n| live::is_transient(&g, n.id)),
            "benchmark stages must free buffers"
        );
        let weights = all_sharded_profile(&g, ParallelConfig::SERIAL);
        let summary = MemorySummary::of(&g);
        let want = fixpoint_peak(&g, &weights);
        assert_eq!(summary.peak(&weights), want);
        let serial = summary.sweep(ParallelConfig::SERIAL);
        assert_eq!((serial.peak, serial.at), want);
        assert_eq!(serial.sum, weights.iter().sum::<u64>());
    }
}

// ---- property: one summary gives the three-walk bound ---------------

/// `sim::memory`'s activation profile under the all-sharded plan, as the
/// `P1401` bound computed it before `MemorySummary`: the incoming
/// activation split `dp` ways, every operator output `mp·dp` ways,
/// everything else 0.
fn all_sharded_profile(g: &Graph, config: ParallelConfig) -> Vec<u64> {
    let (mp, dp) = (config.mp as u64, config.dp as u64);
    g.nodes()
        .iter()
        .map(|node| match node.kind {
            NodeKind::Input
                if node.dtype.is_float() && node.id.index() == 0 && node.shape.rank() == 2 =>
            {
                node.output_bytes() / dp
            }
            NodeKind::Operator(_) => node.output_bytes() / mp / dp,
            _ => 0,
        })
        .collect()
}

/// The `P1401` bound as three walks over the graph, a reference copy of
/// the code `MemorySummary` replaced: the all-sharded profile, the
/// retain-everything estimate (a weight some contraction reads is
/// sharded `1/mp`), then the interval sweep over the profile.
fn three_walk_bound(g: &Graph, config: ParallelConfig) -> MemoryEstimate {
    let mp = config.mp as u64;
    let weights = all_sharded_profile(g, config);
    let mut params = 0u64;
    for node in g.nodes() {
        if node.kind == NodeKind::Input && node.dtype.is_float() {
            if node.id.index() == 0 && node.shape.rank() == 2 {
                continue;
            }
            let sharded = g
                .succs(node.id)
                .iter()
                .any(|&s| g.node(s).kind == NodeKind::Operator(OpKind::DotGeneral));
            params += if sharded {
                node.output_bytes() / mp
            } else {
                node.output_bytes()
            };
        }
    }
    let sum: u64 = weights.iter().sum();
    let last = g.len().saturating_sub(1);
    let mut freed = vec![0u64; g.len()];
    for (j, &w) in weights.iter().enumerate() {
        let id = NodeId(j as u32);
        let end = if live::is_transient(g, id) {
            live::last_use(g, id).index()
        } else {
            last
        };
        freed[end] += w;
    }
    let (mut resident, mut peak) = (0u64, 0u64);
    for (i, &w) in weights.iter().enumerate() {
        resident += w;
        peak = peak.max(resident);
        resident -= freed[i];
    }
    MemoryEstimate {
        params,
        grads: params,
        optimizer: 6 * params,
        activations: peak.min(sum),
    }
}

/// `arb_stage`'s windows, over MoE with 2 or 4 experts in two draws of
/// three.
fn arb_gpt3_or_moe_stage() -> impl Strategy<Value = StageSpec> {
    (arb_stage(), 0usize..3).prop_map(|(stage, kind)| {
        if kind == 0 {
            return stage;
        }
        let dense = stage.model;
        let mut m = ModelSpec::moe_2p6b(dense.batch);
        m.seq_len = dense.seq_len;
        m.hidden = dense.hidden;
        m.num_heads = dense.num_heads;
        m.vocab = dense.vocab;
        m.num_layers = dense.num_layers;
        if let Some(moe) = m.moe.as_mut() {
            moe.num_experts = [2, 4][kind - 1];
            moe.expert_hidden = 2 * dense.hidden;
        }
        StageSpec::new(m, stage.start, stage.end)
    })
}

/// Degrees 1–4 on both axes, so the summary's `mp·dp` split is also
/// taken at sizes that are not powers of two.
fn arb_any_degree_config() -> impl Strategy<Value = ParallelConfig> {
    (1usize..=4, 1usize..=4).prop_map(|(dp, mp)| ParallelConfig::new(dp, mp))
}

proptest! {
    /// The summary's exact estimate equals the three-walk bound field
    /// for field, and its retain-everything ceiling is never below it.
    #[test]
    fn prop_summary_estimate_equals_the_three_walk_bound(
        stage in arb_gpt3_or_moe_stage(),
        config in arb_any_degree_config(),
    ) {
        let g = stage.build_graph();
        let want = three_walk_bound(&g, config);
        let summary = MemorySummary::of(&g);
        prop_assert_eq!(summary.estimate(config), want);
        prop_assert!(summary.sums().upper_estimate(config).total() >= want.total());
        prop_assert_eq!(stage_memory_liveness_bound(&g, config), want);
    }
}

// ---- property: randomized stages + plans ----------------------------

/// Random shrunk transformer stages: small dimensions so graph builds
/// stay fast, but a real mix of layer windows and head counts.
fn arb_stage() -> impl Strategy<Value = StageSpec> {
    (
        1usize..=8,   // batch
        0usize..=1,   // hidden selector
        1usize..=3,   // layers
        any::<u64>(), // window + head seed
    )
        .prop_map(|(batch, h, layers, seed)| {
            let mut m = ModelSpec::gpt3_1p3b(batch);
            m.seq_len = 32;
            m.hidden = [64, 128][h];
            m.num_heads = [2, 4, 8][(seed % 3) as usize];
            m.vocab = 512;
            m.num_layers = layers + (seed % 2) as usize;
            let start = (seed / 2) as usize % m.num_layers;
            StageSpec::new(m, start, (start + layers).min(m.num_layers))
        })
}

fn arb_config() -> impl Strategy<Value = ParallelConfig> {
    (0usize..3, 0usize..3).prop_map(|(d, m)| ParallelConfig::new([1, 2, 4][d], [1, 2, 4][m]))
}

proptest! {
    /// The liveness-tight memory bound is sound: on every random stage
    /// and configuration it never exceeds the legacy retain-everything
    /// bound in any component, so it never rejects a candidate the
    /// legacy all-sharded estimate (`sim::memory::fits_on`) accepts —
    /// on real hardware budgets or on an adversarially tight one.
    #[test]
    fn prop_liveness_bound_never_exceeds_the_legacy_sum(
        stage in arb_stage(),
        config in arb_config(),
        budget_num in 1u64..=100,
    ) {
        let g = stage.build_graph();
        let legacy = stage_memory_lower_bound(&g, config);
        let live = stage_memory_liveness_bound(&g, config);
        prop_assert_eq!(live.params, legacy.params);
        prop_assert_eq!(live.grads, legacy.grads);
        prop_assert_eq!(live.optimizer, legacy.optimizer);
        prop_assert!(live.activations <= legacy.activations);
        prop_assert!(live.total() <= legacy.total());

        // a budget sweeping from far-too-small to comfortable, plus
        // the two real platforms
        let tight = GpuSpec {
            memory_gib: legacy.total() as f64 * budget_num as f64 / 50.0
                / (1u64 << 30) as f64,
            ..GpuSpec::a40()
        };
        for gpu in [tight, GpuSpec::a40(), GpuSpec::a5500()] {
            for headroom in [0.0, 0.1] {
                if fits_on(&gpu, &legacy, headroom) {
                    prop_assert!(
                        fits_on(&gpu, &live, headroom),
                        "liveness bound rejected a candidate the legacy \
                         all-sharded estimate accepts on {}",
                        gpu.name
                    );
                }
            }
        }
    }

    /// Plan analysis is bit-identical at 1, 4, and 8 worker threads,
    /// even over randomized (frequently illegal) plans where several
    /// passes fire at once.
    #[test]
    fn prop_plan_report_is_thread_count_invariant(
        stage in arb_stage(),
        config in arb_config(),
        microbatches in 1usize..=5,
        devices in 0usize..3,
    ) {
        let model = stage.model;
        let plan = PipelinePlan {
            stages: vec![PlannedStage {
                stage,
                mesh: MeshShape::new(1, [1, 2, 4][devices]),
                config,
            }],
            microbatches,
        };
        let opts = PlanCheckOptions {
            cluster: Some(MeshShape::new(1, 4)),
            gpu: Some(GpuSpec::a5500()),
            headroom_frac: 0.1,
        };
        let one = analyze_plan_with_threads(&plan, &model, &opts, 1);
        let four = analyze_plan_with_threads(&plan, &model, &opts, 4);
        let eight = analyze_plan_with_threads(&plan, &model, &opts, 8);
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(&four, &eight);
    }
}

// ---- golden file: the JSON schema is a frozen contract --------------

/// A graph hitting one pass of each family: a mismatched `add`
/// (semantics, error), a dead `exp` (flow, warning), a literal-only
/// `mul` (const-fold, info), and a same-dtype convert (dtype, info).
fn kitchen_sink_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input(Shape::from([4, 8]), DType::F32);
    let y = b.input(Shape::from([4, 9]), DType::F32);
    let bad = b.op(OpKind::Add, &[x, y], Shape::from([4, 8]), DType::F32);
    let lit = b.literal(Shape::from([4, 8]), DType::F32);
    let fold = b.binary(OpKind::Mul, lit, lit);
    let merged = b.binary(OpKind::Add, bad, fold);
    let _dead = b.unary(OpKind::Exp, x);
    let same = b.op(
        OpKind::ConvertElementType,
        &[merged],
        Shape::from([4, 8]),
        DType::F32,
    );
    b.finish(&[same]).unwrap()
}

#[test]
fn golden_json_report_is_stable() {
    let diags = analyze_graph(&kitchen_sink_graph());
    assert!(has_errors(&diags));
    let rendered = render_json(&diags);
    // regenerate with: BLESS=1 cargo test -p predtop-analyze golden
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/kitchen_sink.json"
            ),
            &rendered,
        )
        .unwrap();
    }
    assert_eq!(
        rendered,
        include_str!("golden/kitchen_sink.json"),
        "the JSON diagnostic schema changed; bless tests/golden/kitchen_sink.json \
         only if the change is intentional"
    );
}

/// Second golden: the schema extension of DESIGN.md §12 — a `P13xx`
/// finding carrying a machine-applicable `fix` object.
#[test]
fn golden_json_stack_and_fix_report_is_stable() {
    use predtop_analyze::plan_passes::divisibility_diags;
    use predtop_analyze::Span;

    let mut m = ModelSpec::gpt3_1p3b(8);
    m.num_layers = 2;
    let mut diags = divisibility_diags(&m, 3, ParallelConfig::SERIAL, Span::Plan, None);
    sort_diagnostics(&mut diags);
    assert!(has_errors(&diags));
    let rendered = render_json(&diags);
    // regenerate with: BLESS=1 cargo test -p predtop-analyze golden
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stack_fix.json"),
            &rendered,
        )
        .unwrap();
    }
    assert_eq!(
        rendered,
        include_str!("golden/stack_fix.json"),
        "the JSON schema for fix objects changed; bless \
         tests/golden/stack_fix.json only if the change is intentional"
    );
}

// ---- benchmark models lint clean ------------------------------------

#[test]
fn benchmark_model_graphs_are_clean() {
    for model in [ModelSpec::gpt3_1p3b(8), ModelSpec::moe_2p6b(8)] {
        let graph = StageSpec::new(model, 0, model.num_layers).build_graph();
        let diags = analyze_graph(&graph);
        // the liveness pass always reports its peak as one `P0501` info;
        // anything else — and any warning or error — is a regression
        let unexpected: Vec<_> = diags.iter().filter(|d| d.code.0 != 501).collect();
        assert!(
            unexpected.is_empty(),
            "{:?} emitted graph has findings: {unexpected:?}",
            model.kind
        );
        assert_eq!(
            diags.iter().filter(|d| d.code.0 == 501).count(),
            1,
            "{:?} expected exactly one liveness info",
            model.kind
        );
        assert!(diags
            .iter()
            .filter(|d| d.code.0 == 501)
            .all(|d| d.severity == Severity::Info));
    }
}

#[test]
fn sorting_is_idempotent_on_reports() {
    let mut diags = analyze_graph(&kitchen_sink_graph());
    let before = diags.clone();
    sort_diagnostics(&mut diags);
    assert_eq!(diags, before, "analyze_graph must return sorted findings");
}

// ---- the predtop-lint CLI -------------------------------------------

fn lint_cmd() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_predtop-lint"))
}

#[test]
fn cli_benchmark_models_exit_zero() {
    let out = lint_cmd().args(["--models", "both"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("gpt3-1.3b"));
    assert!(stdout.contains("moe-2.6b"));
}

#[test]
fn cli_injected_fault_exits_one() {
    let out = lint_cmd()
        .args(["--models", "none", "--inject-fault"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[P0107]"), "stdout: {stdout}");

    let json = lint_cmd()
        .args(["--models", "none", "--inject-fault", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(json.status.code(), Some(1));
    let stdout = String::from_utf8(json.stdout).unwrap();
    assert!(stdout.contains(r#""code":"P0107""#), "stdout: {stdout}");
}

#[test]
fn cli_injected_plan_fault_exits_one_and_fix_repairs_it() {
    let broken = lint_cmd()
        .args(["--models", "none", "--inject-plan-fault"])
        .output()
        .unwrap();
    assert_eq!(broken.status.code(), Some(1));
    let stdout = String::from_utf8(broken.stdout).unwrap();
    assert!(stdout.contains("error[P1301]"), "{stdout}");
    assert!(stdout.contains("= fix:"), "{stdout}");

    let fixed = lint_cmd()
        .args(["--models", "none", "--inject-plan-fault", "--fix"])
        .output()
        .unwrap();
    assert_eq!(
        fixed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&fixed.stderr)
    );
    let stderr = String::from_utf8(fixed.stderr).unwrap();
    assert!(stderr.contains("edit round(s)"), "{stderr}");
    assert!(
        stderr.contains("idempotent (second pass applied 0 edits)"),
        "{stderr}"
    );
    let stdout = String::from_utf8(fixed.stdout).unwrap();
    assert!(stdout.contains("(0 errors"), "{stdout}");
}

#[test]
fn cli_fix_rewrites_a_plan_file_once() {
    // the micro-batch count does not divide the batch (P1301)
    let mut m = ModelSpec::gpt3_1p3b(8);
    m.num_layers = 4;
    let broken = PipelinePlan {
        stages: vec![PlannedStage {
            stage: StageSpec::new(m, 0, m.num_layers),
            mesh: MeshShape::new(1, 1),
            config: ParallelConfig::SERIAL,
        }],
        microbatches: 3,
    };
    let path = std::env::temp_dir().join("predtop-lint-fix-test.plan");
    std::fs::write(&path, encode_plan(&broken)).unwrap();

    let out = lint_cmd().arg("--plan").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[P1301]"), "{stdout}");

    let out = lint_cmd()
        .arg("--fix")
        .arg("--plan")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out.stderr);
    let once = std::fs::read(&path).unwrap();
    let fixed = decode_plan(&once).expect("the fixed file is a plan file");
    assert_eq!(fixed.stages, broken.stages);
    assert!(m.batch.is_multiple_of(fixed.microbatches));

    // a second --fix applies nothing and leaves the bytes alone
    let out = lint_cmd()
        .arg("--fix")
        .arg("--plan")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read(&path).unwrap(), once);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_bad_models_value_is_a_structured_diagnostic() {
    let out = lint_cmd().args(["--models", "gpt5"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[P0901]"), "{stderr}");
    assert!(stderr.contains("both|gpt3|moe|none"), "{stderr}");
    assert!(stderr.contains("usage: predtop-lint"), "{stderr}");
}

#[test]
fn cli_bad_input_exits_two() {
    let out = lint_cmd().args(["--format", "yaml"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let dir = std::env::temp_dir();
    let path = dir.join("predtop-lint-malformed-test.plan");
    std::fs::write(&path, "this is not a plan").unwrap();
    let out = lint_cmd().arg("--plan").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not a plan file"), "{stderr}");
    std::fs::remove_file(&path).ok();

    let out = lint_cmd()
        .arg("--plan")
        .arg(dir.join("predtop-lint-no-such-file"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // a bare file argument is a usage error, not a lint subject
    let out = lint_cmd().arg("plan.plan").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
