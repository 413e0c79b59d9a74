//! Integration tests: builder-valid graphs lint clean (property), the
//! JSON renderer's schema is frozen (golden file), the benchmark models
//! are clean at every thread count, and the `predtop-lint` CLI's exit
//! codes and plan-file fixes hold.

use proptest::prelude::*;

use predtop_analyze::plan_passes::{stage_memory_liveness_bound, stage_memory_lower_bound};
use predtop_analyze::{
    analyze_graph, analyze_graph_with_threads, analyze_plan_with_threads, has_errors, render_json,
    sort_diagnostics, BitSet, Lattice, LiveBuffers, PlanCheckOptions, Severity,
};
use predtop_cluster::GpuSpec;
use predtop_ir::{DType, Graph, GraphBuilder, OpKind, Shape};
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{MeshShape, ParallelConfig, PipelinePlan, PlannedStage};
use predtop_service::api::{decode_plan, encode_plan};
use predtop_sim::memory::fits_on;

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

// ---- property: the dataflow lattice laws ----------------------------

/// A random subset of `[0, n)` decoded from a seed bitmask.
fn subset(n: usize, seed: u64) -> BitSet {
    let mut s = BitSet::empty(n);
    for i in 0..n.min(64) {
        if seed & (1 << i) != 0 {
            s.insert(i);
        }
    }
    s
}

proptest! {
    /// The `LiveBuffers` lattice satisfies the laws the fixpoint
    /// solver's termination and confluence arguments rest on
    /// (DESIGN.md §12): join is idempotent, commutative, and
    /// associative; `bottom` is its identity; the transfer function is
    /// monotone w.r.t. the join order.
    #[test]
    fn prop_live_buffers_satisfies_the_lattice_laws(
        g in arb_clean_graph(),
        sa in any::<u64>(),
        sb in any::<u64>(),
        sc in any::<u64>(),
    ) {
        let lat = LiveBuffers::new(&g);
        let n = g.len();
        let (a, b, c) = (subset(n, sa), subset(n, sb), subset(n, sc));
        let join = |x: &BitSet, y: &BitSet| {
            let mut out = x.clone();
            lat.join(&mut out, y);
            out
        };
        // idempotent, commutative, associative, bottom is the identity
        prop_assert_eq!(join(&a, &a), a.clone());
        prop_assert_eq!(join(&a, &b), join(&b, &a));
        prop_assert_eq!(join(&join(&a, &b), &c), join(&a, &join(&b, &c)));
        prop_assert_eq!(join(&a, &lat.bottom()), a.clone());
        // transfer is monotone: a ⊑ a⊔b ⇒ transfer(a) ⊑ transfer(a⊔b)
        let ab = join(&a, &b);
        for node in 0..n {
            let ta = lat.transfer(node, &a);
            let tab = lat.transfer(node, &ab);
            prop_assert_eq!(
                join(&ta, &tab), tab.clone(),
                "transfer not monotone at node {}", node
            );
        }
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

/// Second golden: the schema extensions of DESIGN.md §12 — `P2xxx`
/// stack-ordering codes with `layer` spans, and a `P13xx` finding
/// carrying a machine-applicable `fix` object.
#[test]
fn golden_json_stack_and_fix_report_is_stable() {
    use predtop_analyze::plan_passes::divisibility_diags;
    use predtop_analyze::{analyze_stack, Span};
    use predtop_service::{LayerTag, StackSpec};

    let misordered = StackSpec::from_layers([
        LayerTag::Retry,
        LayerTag::FaultInject,
        LayerTag::Batched,
        LayerTag::Deadline,
        LayerTag::Instrumented,
    ]);
    let mut diags = analyze_stack(&misordered);
    let mut m = ModelSpec::gpt3_1p3b(8);
    m.num_layers = 2;
    diags.extend(divisibility_diags(
        &m,
        3,
        ParallelConfig::SERIAL,
        Span::Plan,
        None,
    ));
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
        "the JSON schema for layer spans or fix objects changed; bless \
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
fn cli_stack_lints_the_canonical_stacks_clean() {
    let out = lint_cmd().args(["--stack"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("stack:default-search"), "{stdout}");
    assert!(stdout.contains("stack:raw-cache"), "{stdout}");
    assert!(
        stdout.contains("(0 errors, 0 warnings, 0 infos)"),
        "{stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(
            "FaultInject → Deadline → Retry → MemoizeStructural → Batched → Instrumented"
        ),
        "{stderr}"
    );
}

#[test]
fn cli_injected_stack_fault_exits_one() {
    let out = lint_cmd()
        .args(["--models", "none", "--inject-stack-fault"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[P2101]"), "{stdout}");
    assert!(stdout.contains("error[P2104]"), "{stdout}");
    // the clean canonical stacks don't mask the injected fault
    let both = lint_cmd()
        .args(["--stack", "--inject-stack-fault"])
        .output()
        .unwrap();
    assert_eq!(both.status.code(), Some(1));
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
fn cli_reports_lint_cache_accounting() {
    let out = lint_cmd().args(["--models", "gpt3"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("lint cache: 0 hits, 1 misses"), "{stderr}");
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
