//! `predtop-lint` — run every static-analysis pass over the benchmark
//! model graphs and persisted plan files.
//!
//! ```text
//! predtop-lint [--format text|json] [--models both|gpt3|moe|none]
//!              [--plan FILE]... [--fix]
//!              [--inject-fault] [--inject-plan-fault]
//! ```
//!
//! With no `--plan` files the built-in benchmark models (GPT-3 1.3B
//! and MoE 2.6B at batch 8) are linted, including the plan passes over
//! each model's trivial single-device plan. `--plan FILE` arguments are
//! decoded as plan files (the versioned byte format of
//! `predtop_service::api::encode_plan`, written by `predtop search
//! --plan-out`) and plan-passes linted against the model embedded in
//! the plan's stages.
//!
//! `--fix` applies every machine-applicable fix attached to plan
//! findings, re-analyzing to a fixpoint: plan files are rewritten in
//! place and the report shows what remains. Fixes are absolute edits,
//! so a second `--fix` run applies nothing — the binary verifies this
//! after every fix and CI diffs the twice-fixed file to pin it.
//!
//! The two `--inject-*` flags append deliberately broken subjects so
//! CI can verify each error path without fixture files: a graph with a
//! shape error (`--inject-fault`) and a plan with divisibility errors
//! that `--fix` can repair (`--inject-plan-fault`).
//!
//! Exit status: 0 clean (no `Error` findings), 1 at least one `Error`
//! finding, 2 usage / IO / parse failure.

use std::process::ExitCode;

use predtop_analyze::{
    analyze_graph, analyze_plan, fix_plan, has_errors, render_json, render_text, Diagnostic,
    PlanCheckOptions, Severity, Span,
};
use predtop_ir::{DType, Graph, GraphBuilder, OpKind, Shape};
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{MeshShape, ParallelConfig, PipelinePlan, PlannedStage};
use predtop_service::api::{decode_plan, encode_plan};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

#[derive(Clone, Copy, PartialEq)]
enum Models {
    Both,
    Gpt3,
    Moe,
    None,
}

struct Args {
    format: Format,
    models: Option<Models>,
    fix: bool,
    inject_fault: bool,
    inject_plan_fault: bool,
    plans: Vec<String>,
}

const USAGE: &str = "usage: predtop-lint [--format text|json] \
                     [--models both|gpt3|moe|none] [--plan FILE]... \
                     [--fix] [--inject-fault] [--inject-plan-fault]";

/// The structured usage diagnostic for a bad `--models` value: the
/// same renderer and code-table discipline as every analysis finding
/// (`P0901`, DESIGN.md §12), so scripts can grep one format.
fn bad_models_value(got: Option<&str>) -> String {
    let got = got.map_or("nothing".to_string(), |g| format!("`{g}`"));
    let d = Diagnostic::new(
        901,
        Severity::Error,
        Span::Graph,
        format!("--models expects both|gpt3|moe|none, got {got}"),
    )
    .with_suggestion("pass --models both to lint every benchmark model");
    format!("{}{USAGE}", render_text(&[d]))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        format: Format::Text,
        models: None,
        fix: false,
        inject_fault: false,
        inject_plan_fault: false,
        plans: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plan" => match it.next() {
                Some(f) => args.plans.push(f.clone()),
                None => return Err("--plan expects a file path".to_string()),
            },
            "--format" => {
                args.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format expects text|json, got {other:?}")),
                }
            }
            "--models" => {
                args.models = Some(match it.next().map(String::as_str) {
                    Some("both") => Models::Both,
                    Some("gpt3") => Models::Gpt3,
                    Some("moe") => Models::Moe,
                    Some("none") => Models::None,
                    other => return Err(bad_models_value(other)),
                })
            }
            "--fix" => args.fix = true,
            "--inject-fault" => args.inject_fault = true,
            "--inject-plan-fault" => args.inject_plan_fault = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            f if f.starts_with('-') => return Err(format!("unknown flag {f}\n{USAGE}")),
            f => {
                return Err(format!(
                    "unexpected argument {f} (plan files go after --plan)\n{USAGE}"
                ))
            }
        }
    }
    Ok(args)
}

/// The trivial single-stage, single-device plan for `model` — the
/// smallest legal subject the plan passes accept, so linting a model
/// exercises every pass kind.
fn trivial_plan(model: ModelSpec) -> PipelinePlan {
    PipelinePlan {
        stages: vec![PlannedStage {
            stage: StageSpec::new(model, 0, model.num_layers),
            mesh: MeshShape::new(1, 1),
            config: ParallelConfig::SERIAL,
        }],
        microbatches: 1,
    }
}

/// A graph with a deliberate shape error (mismatched `add` operands) so
/// CI can assert the non-zero exit path without a fixture file.
fn faulty_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input(Shape::from([4, 8]), DType::F32);
    let y = b.input(Shape::from([4, 9]), DType::F32);
    let bad = b.op(OpKind::Add, &[x, y], Shape::from([4, 8]), DType::F32);
    b.finish(&[bad]).expect("fault graph has an output")
}

/// A plan whose every error carries a machine-applicable fix: the
/// micro-batch count does not divide the batch (`P1301`) and the stage
/// configuration overshards the head count (`P1303`). `--fix` repairs
/// both; without it the subject exits 1 — CI drives both paths.
fn faulty_plan() -> (PipelinePlan, ModelSpec) {
    let mut m = ModelSpec::gpt3_1p3b(8);
    m.num_layers = 4;
    m.num_heads = 2;
    let plan = PipelinePlan {
        stages: vec![PlannedStage {
            stage: StageSpec::new(m, 0, m.num_layers),
            mesh: MeshShape::new(1, 4),
            config: ParallelConfig::new(1, 4),
        }],
        microbatches: 3,
    };
    (plan, m)
}

/// One linted subject: its display name and merged, sorted findings.
struct Report {
    subject: String,
    diags: Vec<Diagnostic>,
}

fn lint_model(model: ModelSpec, name: &str) -> Report {
    let graph = StageSpec::new(model, 0, model.num_layers).build_graph();
    let mut diags = analyze_graph(&graph);
    diags.extend(analyze_plan(
        &trivial_plan(model),
        &model,
        &PlanCheckOptions::default(),
    ));
    Report {
        subject: name.to_string(),
        diags,
    }
}

/// Fix `plan` to a fixpoint and verify idempotence: re-fixing the
/// output must apply zero edits (fix edits are absolute, DESIGN.md
/// §12). Returns the fixed plan and the findings that remain.
fn fix_and_verify(
    plan: &PipelinePlan,
    model: &ModelSpec,
    subject: &str,
) -> (PipelinePlan, Vec<Diagnostic>) {
    let out = fix_plan(plan, model, &PlanCheckOptions::default());
    eprintln!(
        "fix: {subject}: {} edit round(s) over {} analyze round(s), {} finding(s) remain",
        out.applied,
        out.rounds,
        out.remaining.len()
    );
    let again = fix_plan(&out.plan, model, &PlanCheckOptions::default());
    if again.applied != 0 || again.plan != out.plan {
        eprintln!("fix: {subject}: NOT idempotent — second pass changed the plan");
    } else {
        eprintln!("fix: {subject}: idempotent (second pass applied 0 edits)");
    }
    (out.plan, out.remaining)
}

fn lint_plan_file(path: &str, fix: bool) -> Result<Report, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    let plan = decode_plan(&bytes).map_err(|e| format!("{path}: not a plan file: {e}"))?;
    // every stage is sliced from the same model; the first one carries it
    let model = plan
        .stages
        .first()
        .ok_or_else(|| format!("{path}: plan has no stages"))?
        .stage
        .model;
    if fix {
        let (fixed, remaining) = fix_and_verify(&plan, &model, path);
        if fixed != plan {
            std::fs::write(path, encode_plan(&fixed))
                .map_err(|e| format!("{path}: cannot write fixed plan: {e}"))?;
            eprintln!("fix: {path}: rewrote plan file");
        }
        return Ok(Report {
            subject: format!("{path} (plan, fixed)"),
            diags: remaining,
        });
    }
    Ok(Report {
        subject: format!("{path} (plan)"),
        diags: analyze_plan(&plan, &model, &PlanCheckOptions::default()),
    })
}

fn emit_text(reports: &[Report]) {
    for r in reports {
        let (e, w, i) = count(&r.diags);
        println!("==> {} ({e} errors, {w} warnings, {i} infos)", r.subject);
        print!("{}", render_text(&r.diags));
    }
}

fn emit_json(reports: &[Report]) {
    println!("[");
    for (i, r) in reports.iter().enumerate() {
        let body = render_json(&r.diags);
        print!(
            "{{\"subject\":\"{}\",\"diagnostics\":{}}}{}",
            r.subject,
            body.trim_end(),
            if i + 1 < reports.len() { ",\n" } else { "\n" }
        );
    }
    println!("]");
}

fn count(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut e = 0;
    let mut w = 0;
    let mut i = 0;
    for d in diags {
        match d.severity {
            Severity::Error => e += 1,
            Severity::Warn => w += 1,
            Severity::Info => i += 1,
        }
    }
    (e, w, i)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // default: lint the benchmark models, unless plan files were given
    let models = args.models.unwrap_or(if args.plans.is_empty() {
        Models::Both
    } else {
        Models::None
    });

    let mut reports = Vec::new();
    if matches!(models, Models::Both | Models::Gpt3) {
        reports.push(lint_model(ModelSpec::gpt3_1p3b(8), "gpt3-1.3b"));
    }
    if matches!(models, Models::Both | Models::Moe) {
        reports.push(lint_model(ModelSpec::moe_2p6b(8), "moe-2.6b"));
    }
    for f in &args.plans {
        match lint_plan_file(f, args.fix) {
            Ok(r) => reports.push(r),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if args.inject_fault {
        reports.push(Report {
            subject: "fault-injection".to_string(),
            diags: analyze_graph(&faulty_graph()),
        });
    }
    if args.inject_plan_fault {
        let (plan, model) = faulty_plan();
        reports.push(if args.fix {
            let (_, remaining) = fix_and_verify(&plan, &model, "plan-fault-injection");
            Report {
                subject: "plan-fault-injection (fixed)".to_string(),
                diags: remaining,
            }
        } else {
            Report {
                subject: "plan-fault-injection".to_string(),
                diags: analyze_plan(&plan, &model, &PlanCheckOptions::default()),
            }
        });
    }
    if reports.is_empty() {
        eprintln!("nothing to lint\n{USAGE}");
        return ExitCode::from(2);
    }

    match args.format {
        Format::Text => emit_text(&reports),
        Format::Json => emit_json(&reports),
    }
    if reports.iter().any(|r| has_errors(&r.diags)) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
