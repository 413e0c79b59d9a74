//! Integration tests for the `predtop` command-line binary.

use std::process::Command;

fn predtop() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predtop"))
}

#[test]
fn info_lists_platforms_and_benchmarks() {
    let out = predtop().arg("info").output().expect("run predtop info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("NVIDIA A40"));
    assert!(text.contains("NVIDIA RTX A5500"));
    assert!(text.contains("GPT-3"));
    assert!(text.contains("300 stage candidates"));
    assert!(text.contains("4 way Model parallel"));
}

#[test]
fn profile_reports_latency() {
    let out = predtop()
        .args([
            "profile", "--scaled", "--stage", "2..4", "--mesh", "1x2", "--mp", "2",
        ])
        .output()
        .expect("run predtop profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GPT-3[2..4)"));
    assert!(text.contains("2 way Model parallel"));
    assert!(text.contains("training-iteration latency"));
}

#[test]
fn profile_rejects_config_mesh_mismatch() {
    let out = predtop()
        .args(["profile", "--scaled", "--mesh", "1x1", "--mp", "2"])
        .output()
        .expect("run predtop profile");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not fill"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = predtop().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// Golden `--help` output: the full flag reference, verbatim. Update
/// this string deliberately whenever a flag is added or renamed — it is
/// the CLI's compatibility contract.
const GOLDEN_HELP: &str = "usage: predtop <command> [options]

commands:
  info                       list platforms, meshes, and benchmarks
  profile                    simulate one stage's training latency
  search                     optimize a full pipeline plan
  fit -o FILE                fit a DAG-Transformer predictor and save it
  predict -m FILE            predict a stage latency with a saved model
                             (falls back to the analytic baseline if the
                             model cannot be loaded; see `source = ...`)
  store stats|verify|gc      inspect, verify, or compact the object
                             store named by --store DIR
  serve                      run the framed wire-protocol daemon on
                             --listen (TCP) and/or --socket (Unix);
                             drains gracefully on SIGTERM or a
                             Shutdown frame
  help                       print this help (also --help / -h)

options:
  --model gpt3|moe           benchmark (default gpt3)
  --platform 1|2             hardware platform (default 2)
  --mesh NxG                 sub-mesh, e.g. 1x2 (default 1x1)
  --dp D --mp M              parallelism config (default 1,1)
  --stage A..B               layer range (default whole model)
  --microbatches B           pipeline micro-batches (default 8)
  --threads T                (search/serve) evaluation worker threads
  --format text|json         output format (default text)
  --plan-out FILE            (search) write the chosen plan file
                             (predtop-lint --plan reads it)
  --store DIR                persist latency replies and plan/outcome
                             snapshots in a content-addressed object
                             store at DIR, so a second identical run
                             is served from disk (profile/search/
                             predict/serve)
  --raw-cache                (search/serve) memoize on raw query
                             identity instead of structural equivalence
                             classes
  --checked                  (search) reject statically illegal
                             candidates (sharding divisibility + the
                             liveness-tight memory bound) before any
                             latency evaluation
  --scaled                   shrink the benchmark for quick runs
  --seed S                   simulator seed (default 7)

fault tolerance (search, serve):
  --inject-fault-rate R      inject transient faults at rate R in [0,1]
  --fault-seed S             fault-injection hash seed (default 0)
  --retry N                  re-attempt transient failures up to N times
  --deadline-ms MS           per-query latency budget in milliseconds

serving (serve):
  --listen HOST:PORT         accept framed requests over TCP
  --socket PATH              accept framed requests on a Unix socket
  -m FILE                    saved predictor backing Predict requests
  --max-connections N        concurrent-connection ceiling
  --breaker-trip N           admission breaker trips after N failures
                             and sheds requests until its cooldown
                             probe succeeds (default 5)
";

#[test]
fn help_matches_the_golden_reference() {
    for invocation in [&["help"][..], &["--help"][..], &["search", "-h"][..]] {
        let out = predtop().args(invocation).output().expect("run help");
        assert!(out.status.success(), "help exits 0 for {invocation:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            GOLDEN_HELP,
            "help text drifted from the golden reference ({invocation:?})"
        );
    }
}

#[test]
fn every_subcommand_answers_help_with_exit_zero() {
    for command in [
        "info", "profile", "search", "fit", "predict", "store", "serve",
    ] {
        let out = predtop()
            .args([command, "--help"])
            .output()
            .expect("run subcommand --help");
        assert!(
            out.status.success(),
            "`predtop {command} --help` must exit 0: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            GOLDEN_HELP,
            "`predtop {command} --help` drifted from the golden reference"
        );
    }
}

#[test]
fn fit_then_predict_roundtrip() {
    let model_path = std::env::temp_dir().join("predtop_cli_test_model.bin");
    let _ = std::fs::remove_file(&model_path);
    let out = predtop()
        .args([
            "fit",
            "--scaled",
            "--mesh",
            "1x1",
            "--stages",
            "12",
            "--epochs",
            "6",
            "-o",
            model_path.to_str().unwrap(),
        ])
        .output()
        .expect("run predtop fit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model_path.exists(), "model file written");

    let out = predtop()
        .args([
            "predict",
            "--scaled",
            "--stage",
            "1..3",
            "-m",
            model_path.to_str().unwrap(),
        ])
        .output()
        .expect("run predtop predict");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted latency"), "{text}");
    // the saved model loads back and answers, not the analytic fallback
    assert!(text.contains("source = predictor"), "{text}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("model load failed"), "{stderr}");
    std::fs::remove_file(model_path).ok();
}

#[test]
fn predict_with_missing_model_falls_back_to_analytic() {
    let out = predtop()
        .args([
            "predict",
            "--scaled",
            "--stage",
            "1..3",
            "-m",
            "/nonexistent/predtop-missing-model.json",
        ])
        .output()
        .expect("run predtop predict");
    // the fallback chain absorbs the load failure: exit 0, answer served
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted latency"), "{text}");
    assert!(text.contains("source = analytic"), "{text}");
    // and the degradation is reported, not hidden
    assert!(String::from_utf8_lossy(&out.stderr).contains("model load failed"));
}

#[test]
fn search_finds_a_plan() {
    let out = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
        ])
        .output()
        .expect("run predtop search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimal plan"));
    assert!(text.contains("iteration latency"));
    assert!(text.contains("profiling bill"));
    // the service stack's accounting is part of the report
    assert!(text.contains("memoize:"), "{text}");
    assert!(text.contains("service:"), "{text}");
}

#[test]
fn search_raw_cache_switch_changes_only_the_accounting() {
    let structural = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
        ])
        .output()
        .expect("run structural predtop search");
    assert!(structural.status.success());
    let structural = String::from_utf8_lossy(&structural.stdout);
    assert!(structural.contains("structural keys:"), "{structural}");

    let raw = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
            "--raw-cache",
        ])
        .output()
        .expect("run raw-cache predtop search");
    assert!(
        raw.status.success(),
        "{}",
        String::from_utf8_lossy(&raw.stderr)
    );
    let raw = String::from_utf8_lossy(&raw.stdout);
    // raw-identity keys never dedup within one search, and the
    // interner line disappears with them
    assert!(raw.contains("memoize: 0 hits"), "{raw}");
    assert!(!raw.contains("structural keys:"), "{raw}");
    // both runs land on the identical plan and latency
    let plan_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("GPT-3[") || l.contains("iteration latency"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(plan_lines(&structural), plan_lines(&raw));
}

#[test]
fn search_checked_reports_legality_and_keeps_the_plan() {
    // the scaled benchmark has batch 2, so 2 micro-batches divide evenly
    let plain = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "2",
        ])
        .output()
        .expect("run plain predtop search");
    assert!(plain.status.success());
    let plain = String::from_utf8_lossy(&plain.stdout);
    assert!(!plain.contains("legality:"), "{plain}");

    let checked = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "2",
            "--checked",
        ])
        .output()
        .expect("run checked predtop search");
    assert!(
        checked.status.success(),
        "{}",
        String::from_utf8_lossy(&checked.stderr)
    );
    let checked = String::from_utf8_lossy(&checked.stdout);
    assert!(checked.contains("legality:"), "{checked}");
    assert!(
        checked.contains("by the liveness memory bound"),
        "{checked}"
    );
    // static pruning never changes the chosen plan or its latency
    let plan_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("GPT-3[") || l.contains("iteration latency"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(plan_lines(&plain), plan_lines(&checked));
    // and the JSON report carries the counters
    let json = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "2",
            "--checked",
            "--format",
            "json",
        ])
        .output()
        .expect("run checked json predtop search");
    assert!(json.status.success());
    let json = String::from_utf8_lossy(&json.stdout);
    assert!(json.contains("\"num_rejected\":"), "{json}");
    assert!(json.contains("\"num_rejected_memory\":"), "{json}");
}

#[test]
fn search_checked_rejects_indivisible_microbatches_up_front() {
    // batch 2 cannot split into 4 micro-batches: P1301 rejects every
    // candidate, so the checked search must exit 2 with the structured
    // diagnostic instead of panicking mid-search
    let out = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
            "--checked",
        ])
        .output()
        .expect("run indivisible checked predtop search");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("P1301"), "{stderr}");
    assert!(stderr.contains("does not divide"), "{stderr}");
    assert!(stderr.contains("fix:"), "{stderr}");
}

#[test]
fn search_with_injected_faults_recovers_and_reports() {
    let baseline = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
            "--threads",
            "2",
            "--format",
            "json",
        ])
        .output()
        .expect("run clean predtop search");
    assert!(baseline.status.success());

    let out = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
            "--threads",
            "2",
            "--format",
            "json",
            "--inject-fault-rate",
            "0.2",
            "--retry",
            "3",
        ])
        .output()
        .expect("run chaos predtop search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let clean = String::from_utf8_lossy(&baseline.stdout);
    let chaos = String::from_utf8_lossy(&out.stdout);
    // the chaos run found the identical plan (the JSON line extends the
    // clean one with the chaos counters)
    let clean_core = clean.trim_end().trim_end_matches('}');
    assert!(
        chaos.starts_with(clean_core),
        "chaos plan diverged:\n  clean: {clean}\n  chaos: {chaos}"
    );
    assert!(chaos.contains("\"injected_faults\":"), "{chaos}");
    assert!(chaos.contains("\"retries\":"), "{chaos}");
    // with rate 0.2 over a hundred-odd queries, some fault was injected
    assert!(!chaos.contains("\"injected_faults\":0,"), "{chaos}");
}

#[test]
fn search_with_zero_deadline_reports_a_structured_error() {
    let out = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
            "--deadline-ms",
            "0",
        ])
        .output()
        .expect("run predtop search");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("search failed (permanent)"), "{err}");
    assert!(err.contains("deadline exceeded"), "{err}");
    assert!(err.contains("hint:"), "{err}");
}

#[test]
fn search_rejects_an_out_of_range_fault_rate() {
    let out = predtop()
        .args(["search", "--scaled", "--inject-fault-rate", "1.5"])
        .output()
        .expect("run predtop search");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("probability"));
}

/// A fresh per-test store directory under the system temp dir.
fn fresh_store_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("predtop-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_backed_search_serves_the_second_run_from_disk() {
    let dir = fresh_store_dir("warm-search");
    let run = || {
        predtop()
            .args([
                "search",
                "--scaled",
                "--platform",
                "1",
                "--microbatches",
                "4",
                "--format",
                "json",
                "--store",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("run store-backed predtop search")
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold = String::from_utf8_lossy(&cold.stdout).into_owned();
    // the cold run saw an empty store: every distinct structure missed
    assert!(cold.contains("\"store_disk_hits\":0,"), "{cold}");
    assert!(!cold.contains("\"store_disk_misses\":0,"), "{cold}");

    let warm = run();
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm = String::from_utf8_lossy(&warm.stdout).into_owned();
    // the warm run recomputed nothing and wrote nothing new
    assert!(warm.contains("\"store_disk_misses\":0,"), "{warm}");
    assert!(warm.contains("\"store_writes\":0"), "{warm}");
    assert!(!warm.contains("\"store_disk_hits\":0,"), "{warm}");

    // bit-identical results: the JSON lines differ only in the store
    // counters, so compare everything around them
    let strip = |s: &str| -> String {
        s.split(',')
            .filter(|f| !f.contains("\"store_"))
            .collect::<Vec<_>>()
            .join(",")
    };
    assert_eq!(strip(&cold), strip(&warm), "warm plan diverged from cold");

    // the maintenance surface sees the objects the runs wrote
    let stats = predtop()
        .args(["store", "stats", "--store", dir.to_str().unwrap()])
        .output()
        .expect("run predtop store stats");
    assert!(stats.status.success());
    let stats = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.contains("object store at"), "{stats}");
    assert!(!stats.contains("loose:  0 objects"), "{stats}");

    let verify = predtop()
        .args(["store", "verify", "--store", dir.to_str().unwrap()])
        .output()
        .expect("run predtop store verify");
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    assert!(String::from_utf8_lossy(&verify.stdout).contains("clean"));

    // gc packs the loose objects; the store stays clean and warm
    let gc = predtop()
        .args(["store", "gc", "--store", dir.to_str().unwrap()])
        .output()
        .expect("run predtop store gc");
    assert!(
        gc.status.success(),
        "{}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let gc = String::from_utf8_lossy(&gc.stdout);
    assert!(gc.contains("gc generation"), "{gc}");

    let verify = predtop()
        .args(["store", "verify", "--store", dir.to_str().unwrap()])
        .output()
        .expect("run predtop store verify after gc");
    assert!(verify.status.success());
    let packed = run();
    assert!(packed.status.success());
    let packed = String::from_utf8_lossy(&packed.stdout).into_owned();
    assert!(packed.contains("\"store_disk_misses\":0,"), "{packed}");
    assert_eq!(strip(&cold), strip(&packed), "post-gc plan diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_profile_hits_disk_on_the_second_run() {
    let dir = fresh_store_dir("warm-profile");
    let run = || {
        predtop()
            .args([
                "profile",
                "--scaled",
                "--stage",
                "2..4",
                "--mesh",
                "1x2",
                "--mp",
                "2",
                "--store",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("run store-backed predtop profile")
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold = String::from_utf8_lossy(&cold.stdout).into_owned();
    assert!(
        cold.contains("store: 0 disk hits / 1 disk misses"),
        "{cold}"
    );
    let warm = run();
    assert!(warm.status.success());
    let warm = String::from_utf8_lossy(&warm.stdout).into_owned();
    assert!(
        warm.contains("store: 1 disk hits / 0 disk misses"),
        "{warm}"
    );
    // identical latency line, served from disk this time
    let latency = |s: &str| -> String {
        s.lines()
            .find(|l| l.contains("training-iteration latency"))
            .unwrap()
            .split("(")
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(latency(&cold), latency(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_command_requires_an_action_and_a_directory() {
    let out = predtop().arg("store").output().expect("run predtop store");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stats | verify | gc"));

    let out = predtop()
        .args(["store", "stats"])
        .output()
        .expect("run predtop store stats without dir");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store DIR"));

    let dir = fresh_store_dir("bad-action");
    let out = predtop()
        .args(["store", "frobnicate", "--store", dir.to_str().unwrap()])
        .output()
        .expect("run predtop store frobnicate");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown store action"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_plan_out_writes_a_plan_file() {
    let plan_path = std::env::temp_dir().join("predtop_cli_test.plan");
    let _ = std::fs::remove_file(&plan_path);
    let out = predtop()
        .args([
            "search",
            "--scaled",
            "--platform",
            "1",
            "--microbatches",
            "4",
            "--plan-out",
            plan_path.to_str().unwrap(),
        ])
        .output()
        .expect("run predtop search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&plan_path).expect("plan file written");
    let plan = predtop::core::decode_plan(&bytes).expect("plan file decodes");
    assert!(!plan.stages.is_empty());
    assert_eq!(plan.microbatches, 4);
    // the stages tile the model's layers in order
    let model = plan.stages[0].stage.model;
    let mut next = 0;
    for ps in &plan.stages {
        assert_eq!(ps.stage.model, model);
        assert_eq!(ps.stage.start, next);
        next = ps.stage.end;
    }
    assert_eq!(next, model.num_layers);
    // and they agree with the stage lines the search printed
    let text = String::from_utf8_lossy(&out.stdout);
    for ps in &plan.stages {
        assert!(text.contains(&ps.stage.label()), "{text}");
    }
    std::fs::remove_file(plan_path).ok();
}
