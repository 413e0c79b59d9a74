//! `predtop` — command-line front end to the library.
//!
//! ```text
//! predtop info                          platforms, meshes, benchmarks
//! predtop profile [options]             simulate one stage's latency
//! predtop search  [options]             optimize a pipeline plan
//! predtop fit     [options] -o FILE     fit a predictor and save it
//! predtop predict -m FILE [options]     predict with a saved predictor
//! predtop store ACTION --store DIR      inspect/verify/gc an object store
//! predtop serve   [options]             framed request/response daemon
//! predtop help                          print the full flag reference
//! ```
//!
//! Common options: `--model gpt3|moe`, `--platform 1|2`, `--mesh NxG`,
//! `--dp D --mp M`, `--stage A..B`, `--threads T`, `--format text|json`,
//! `--scaled` (shrink the benchmark so runs finish in seconds on a
//! laptop), `--seed S`. `search` and `serve` additionally take the
//! fault-tolerance flags `--inject-fault-rate`, `--fault-seed`,
//! `--retry`, and `--deadline-ms` (see `DESIGN.md` §10 for the fault
//! model).
//!
//! `--store DIR` on `profile`/`search`/`predict`/`serve` installs the
//! disk tier (DESIGN.md §13): latency replies are keyed by structural
//! descriptor in a content-addressed object store, so a second
//! identical run is served from disk — bit-identically — instead of
//! recomputed.
//!
//! Every command speaks the unified request/response API of
//! `predtop_service::api`: the CLI parses its flags into the **same**
//! [`api::Request`] values the `serve` daemon decodes off a socket, and
//! both hand them to the same [`ServeEngine`] (DESIGN.md §14).

use std::collections::HashMap;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

use predtop::core::encode_graybox;
use predtop::prelude::*;

/// The complete help text. `predtop help` / `--help` print it verbatim
/// (a golden test in `tests/cli.rs` pins it), and every usage error
/// points at it.
const HELP: &str = "usage: predtop <command> [options]

commands:
  info                       list platforms, meshes, and benchmarks
  profile                    simulate one stage's training latency
  search                     optimize a full pipeline plan
  fit -o FILE                fit a DAG-Transformer predictor and save it
  predict -m FILE            predict a stage latency with a saved model
                             (falls back to the analytic baseline if the
                             model cannot be loaded or was fit for another
                             mesh and config; see `source = ...`)
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
  --microbatches B           pipeline micro-batches (default: the
                             model's batch, so the plan passes P1301)
  --threads T                (search/serve) evaluation worker threads
  --format text|json         output format (default text)
  --plan-out FILE            (search) write the chosen plan file
                             (predtop-lint --plan reads it)
  --store DIR                persist latency replies in a
                             content-addressed object store at DIR,
                             so a second identical run is served from
                             disk (profile/search/predict/serve)
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
                             probe succeeds (default 5)";

fn usage() -> ! {
    eprintln!("{HELP}");
    exit(2)
}

fn help() -> ! {
    println!("{HELP}");
    exit(0)
}

struct Args {
    command: String,
    /// The bare action word after the `store` command (`stats` | `verify`
    /// | `gc`); every other command rejects positionals.
    action: Option<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else { usage() };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        help();
    }
    let mut action = None;
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let rest: Vec<String> = argv.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        if !a.starts_with("--") && a != "-o" && a != "-m" && a != "-h" {
            if command == "store" && action.is_none() {
                action = Some(a.clone());
                i += 1;
                continue;
            }
            eprintln!("unexpected argument `{a}`");
            usage();
        }
        let key = a.trim_start_matches('-').to_string();
        if matches!(key.as_str(), "help" | "h") {
            help();
        }
        if matches!(key.as_str(), "scaled" | "checked") {
            switches.push(key);
        } else {
            i += 1;
            if i >= rest.len() {
                eprintln!("flag `{a}` needs a value");
                usage();
            }
            flags.insert(key, rest[i].clone());
        }
        i += 1;
    }
    Args {
        command,
        action,
        flags,
        switches,
    }
}

/// Output rendering selected by `--format`.
#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Text,
    Json,
}

impl Args {
    fn model(&self) -> ModelSpec {
        let scaled = self.switches.iter().any(|s| s == "scaled");
        let mut m = match self.flags.get("model").map(|s| s.as_str()) {
            None | Some("gpt3") => ModelSpec::gpt3_1p3b(if scaled { 2 } else { 8 }),
            Some("moe") => ModelSpec::moe_2p6b(if scaled { 2 } else { 8 }),
            Some(other) => {
                eprintln!("unknown model `{other}` (gpt3|moe)");
                usage()
            }
        };
        if scaled {
            m.seq_len = 128;
            m.hidden = 128;
            m.num_heads = 8;
            m.vocab = 2048;
            m.num_layers = 8;
            if let Some(moe) = m.moe.as_mut() {
                moe.num_experts = 8;
                moe.expert_hidden = 256;
            }
        }
        m
    }

    fn platform(&self) -> Platform {
        match self.flags.get("platform").map(|s| s.as_str()) {
            Some("1") => Platform::platform1(),
            None | Some("2") => Platform::platform2(),
            Some(other) => {
                eprintln!("unknown platform `{other}` (1|2)");
                usage()
            }
        }
    }

    fn mesh(&self) -> MeshShape {
        let spec = self.flags.get("mesh").map(|s| s.as_str()).unwrap_or("1x1");
        let shape = spec
            .split_once('x')
            .and_then(|(n, g)| Some((n.parse().ok()?, g.parse().ok()?)));
        match shape {
            Some((n, g)) if n > 0 && g > 0 => MeshShape::new(n, g),
            _ => {
                eprintln!("bad --mesh `{spec}` (expected NxG, both at least 1)");
                usage()
            }
        }
    }

    fn config(&self) -> ParallelConfig {
        let [dp, mp] = ["dp", "mp"].map(|key| match self.usize_flag(key, 1) {
            0 => {
                eprintln!("--{key} must be at least 1");
                usage()
            }
            degree => degree,
        });
        ParallelConfig::new(dp, mp)
    }

    /// `--mesh` and `--dp`/`--mp` together, for commands that run one
    /// scenario: the configuration must use exactly the mesh's devices.
    fn placement(&self) -> (MeshShape, ParallelConfig) {
        let mesh = self.mesh();
        let config = self.config();
        if config.num_devices() != mesh.num_devices() {
            eprintln!(
                "--dp * --mp = {} does not fill --mesh {} ({} devices)",
                config.num_devices(),
                mesh.label(),
                mesh.num_devices()
            );
            usage()
        }
        (mesh, config)
    }

    fn usize_flag(&self, key: &str, default: usize) -> usize {
        self.flags
            .get(key)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--{key} expects a number, got `{v}`");
                    usage()
                })
            })
            .unwrap_or(default)
    }

    fn f64_flag(&self, key: &str, default: f64) -> f64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--{key} expects a number, got `{v}`");
                    usage()
                })
            })
            .unwrap_or(default)
    }

    fn seed(&self) -> u64 {
        self.usize_flag("seed", 7) as u64
    }

    /// The `--store DIR` object store, opened (and its directory layout
    /// created) on demand.
    fn store(&self) -> Option<Arc<Store>> {
        self.flags.get("store").map(|dir| match Store::open(dir) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("could not open object store at {dir}: {e}");
                exit(1)
            }
        })
    }

    /// The platform's numeric id, for store-key namespaces. Replies
    /// simulated on different platforms (or seeds) must never collide.
    fn platform_id(&self) -> &str {
        match self.flags.get("platform").map(|s| s.as_str()) {
            Some("1") => "1",
            _ => "2",
        }
    }

    fn format(&self) -> OutputFormat {
        match self.flags.get("format").map(|s| s.as_str()) {
            None | Some("text") => OutputFormat::Text,
            Some("json") => OutputFormat::Json,
            Some(other) => {
                eprintln!("unknown format `{other}` (text|json)");
                usage()
            }
        }
    }

    fn stage(&self, model: ModelSpec) -> StageSpec {
        let Some(spec) = self.flags.get("stage") else {
            return StageSpec::new(model, 0, model.num_layers);
        };
        let range = spec
            .split_once("..")
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
        match range {
            Some((a, b)) if a < b && b <= model.num_layers => StageSpec::new(model, a, b),
            _ => {
                eprintln!(
                    "bad --stage `{spec}` (expected A..B with A < B <= {}, the layer count)",
                    model.num_layers
                );
                usage()
            }
        }
    }

    /// Assemble the request-execution engine every command shares, from
    /// the common flags. One construction path: the CLI, the `serve`
    /// daemon, and the tests all run the identical stacks.
    fn engine(&self, model_path: Option<String>) -> ServeEngine {
        let mut config = EngineConfig::new(self.platform(), self.platform_id(), self.seed());
        config.threads = self.usize_flag("threads", configured_threads());
        config.store = self.store();
        config.fault_rate = self.f64_flag("inject-fault-rate", 0.0);
        config.fault_seed = self.usize_flag("fault-seed", 0) as u64;
        config.retries = self.usize_flag("retry", 0);
        config.deadline = self
            .flags
            .contains_key("deadline-ms")
            .then(|| self.f64_flag("deadline-ms", 0.0) / 1000.0);
        config.breaker = BreakerConfig::tripping_after(self.usize_flag("breaker-trip", 5));
        config.model_path = model_path;
        ServeEngine::new(config).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        })
    }
}

/// The stage-window request `profile` and `predict` share.
fn stage_request(stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> api::ProfileSpec {
    api::ProfileSpec {
        model: stage.model,
        start: stage.start,
        end: stage.end,
        mesh,
        config,
    }
}

fn cmd_info() {
    println!("PredTOP — gray-box latency prediction for distributed DL training\n");
    for platform in [Platform::platform1(), Platform::platform2()] {
        println!(
            "{}: {} ({} CUDA cores, {:.0} GiB, {:.0} GB/s)",
            platform.name,
            platform.gpu.name,
            platform.gpu.cuda_cores,
            platform.gpu.memory_gib,
            platform.gpu.mem_bandwidth_gbs
        );
        for mesh in platform.table2_meshes() {
            let shape = MeshShape::new(mesh.num_nodes, mesh.gpus_per_node);
            let configs: Vec<String> = table3_configs(shape).iter().map(|c| c.remark()).collect();
            println!(
                "  mesh {} ({}): {}",
                mesh.table2_index().unwrap(),
                mesh.label(),
                configs.join(" / ")
            );
        }
    }
    println!();
    for model in [ModelSpec::gpt3_1p3b(8), ModelSpec::moe_2p6b(8)] {
        println!(
            "{}: {} layers, hidden {}, seq {}, vocab {}, ~{:.2}B params, {} stage candidates",
            model.kind.name(),
            model.num_layers,
            model.hidden,
            model.seq_len,
            model.vocab,
            model.approx_params() as f64 / 1e9,
            enumerate_stages(model).len()
        );
    }
}

fn cmd_profile(args: &Args) {
    let model = args.model();
    let stage = args.stage(model);
    let (mesh, config) = args.placement();
    let engine = args.engine(None);
    let graph = engine.profiler().stage_graph(&stage);
    let request = api::Request::Profile(stage_request(&stage, mesh, config));
    let (seconds, source) = match engine.handle(&request) {
        api::Response::Latency { seconds, source } => (seconds, source),
        api::Response::Error(e) => {
            eprintln!("profile failed: {}", e.message);
            exit(1)
        }
        other => {
            eprintln!("internal error: unexpected profile reply {other:?}");
            exit(1)
        }
    };
    let persist = engine.report().persist;
    match args.format() {
        OutputFormat::Text => {
            println!(
                "{} on {} mesh {} [{}]",
                stage.label(),
                args.platform().name,
                mesh.label(),
                config.remark()
            );
            println!(
                "  graph: {} nodes, {} edges",
                graph.len(),
                graph.num_edges()
            );
            println!(
                "  training-iteration latency: {seconds:.6} s (one micro-batch, source = {source})"
            );
            if let Some(p) = &persist {
                println!("  {}", p.summary());
            }
        }
        OutputFormat::Json => println!(
            "{{\"stage\":\"{}\",\"mesh\":\"{}\",\"dp\":{},\"mp\":{},\"latency_s\":{:.9},\"source\":\"{}\"{}}}",
            stage.label(),
            mesh.label(),
            config.dp,
            config.mp,
            seconds,
            source,
            persist
                .as_ref()
                .map(|p| flat_json_fields(p))
                .unwrap_or_default()
        ),
    }
}

/// Render a failed request for the terminal — the CLI's side of the
/// error redesign: every failure class gets its retryability and an
/// actionable hint.
fn die_api_error(e: &api::ErrorBody) -> ! {
    let class = if e.transient {
        "transient"
    } else {
        "permanent"
    };
    let hint = match e.kind {
        api::ErrorKind::BadRequest => "check the flags against `predtop help`",
        api::ErrorKind::Unavailable => "check the latency source (is the model file readable?)",
        api::ErrorKind::Unsupported => {
            "fit a predictor for this scenario, or query the simulator instead"
        }
        api::ErrorKind::Fault => "raise --retry so every query can outlive the injected faults",
        api::ErrorKind::Deadline => "raise --deadline-ms or drop the budget",
        api::ErrorKind::Shed => {
            "the source kept failing; send the request again after the admission \
             cooldown, or raise --breaker-trip"
        }
        api::ErrorKind::Internal => "this is a bug: the request handler panicked",
    };
    eprintln!("search failed ({class}): {}", e.message);
    eprintln!("  hint: {hint}");
    exit(1)
}

fn cmd_search(args: &Args) {
    let model = args.model();
    let platform = args.platform();
    // the batch always divides itself, so the default count satisfies
    // P1301 (8 at paper size, 2 under --scaled)
    let microbatches = args.usize_flag("microbatches", model.batch);
    let engine = args.engine(None);
    let fault_rate = engine.config().fault_rate;
    let fault_seed = engine.config().fault_seed;
    let chaos =
        fault_rate > 0.0 || engine.config().retries > 0 || engine.config().deadline.is_some();
    eprintln!(
        "searching plans for {} on {} ({} candidates will be profiled)...",
        model.kind.name(),
        platform.name,
        enumerate_stages(model).len()
    );
    let checked = args.switches.iter().any(|s| s == "checked");
    if checked && (microbatches == 0 || !model.batch.is_multiple_of(microbatches)) {
        // P1301 rejects *every* candidate, so a checked search can never
        // find a covering partition — fail up front with the structured
        // diagnostic (and its machine-applicable fix) instead.
        let diags = predtop::analyze::plan_passes::divisibility_diags(
            &model,
            microbatches,
            ParallelConfig::new(1, 1),
            predtop::analyze::Span::Plan,
            None,
        );
        eprintln!(
            "checked search rejected up front: no candidate can satisfy \
             the micro-batch divisibility rule"
        );
        eprint!("{}", render_text(&diags));
        exit(2);
    }
    let request = api::Request::Search(api::SearchSpec {
        model,
        microbatches,
        imbalance_tolerance: None,
        checked,
    });
    let out = match engine.handle(&request) {
        api::Response::Search(out) => out,
        api::Response::Error(e) => die_api_error(&e),
        other => {
            eprintln!("internal error: unexpected search reply {other:?}");
            exit(1)
        }
    };
    let report = engine.report();
    match args.format() {
        OutputFormat::Text => {
            println!("optimal plan ({} stage-latency queries):", out.num_queries);
            for ps in &out.plan.stages {
                println!(
                    "  {} on {} [{}]",
                    ps.stage.label(),
                    ps.mesh.label(),
                    ps.config.remark()
                );
            }
            println!(
                "iteration latency: {:.6} s (B = {})",
                out.true_latency, out.plan.microbatches
            );
            if checked {
                println!(
                    "legality: {} candidates rejected before evaluation \
                     ({} by the liveness memory bound)",
                    out.num_rejected, out.num_rejected_memory
                );
            }
            // every installed sub-ledger renders through the one shared
            // `Ledger` surface the JSON and wire stats also use; the
            // fault-tolerance lines stay quiet unless chaos was asked for
            for ledger in report.ledgers() {
                let name = ledger.ledger_name();
                if matches!(name, "faults" | "retry" | "deadline") && !chaos {
                    continue;
                }
                if name == "faults" {
                    println!(
                        "{} (rate {fault_rate}, seed {fault_seed})",
                        ledger.summary()
                    );
                } else {
                    println!("{}", ledger.summary());
                }
            }
            let bill = engine.profiler().ledger().totals();
            println!(
                "profiling bill: {} stages, {:.0} simulated seconds",
                bill.stages_profiled, bill.profiling_s
            );
        }
        OutputFormat::Json => {
            let stages: Vec<String> = out
                .plan
                .stages
                .iter()
                .map(|ps| {
                    format!(
                        "{{\"start\":{},\"end\":{},\"nodes\":{},\"gpus_per_node\":{},\"dp\":{},\"mp\":{}}}",
                        ps.stage.start,
                        ps.stage.end,
                        ps.mesh.nodes,
                        ps.mesh.gpus_per_node,
                        ps.config.dp,
                        ps.config.mp
                    )
                })
                .collect();
            let mut svc_fields = String::new();
            if checked {
                svc_fields.push_str(&format!(
                    ",\"num_rejected\":{},\"num_rejected_memory\":{}",
                    out.num_rejected, out.num_rejected_memory
                ));
            }
            let mut chaos_fields = String::new();
            for ledger in report.ledgers() {
                let chaos_ledger = matches!(ledger.ledger_name(), "faults" | "retry" | "deadline");
                if chaos_ledger && !chaos {
                    continue;
                }
                let fields = flat_json_fields(ledger);
                if chaos_ledger {
                    chaos_fields.push_str(&fields);
                } else {
                    svc_fields.push_str(&fields);
                }
            }
            println!(
                "{{\"model\":\"{}\",\"iteration_latency_s\":{:.9},\"microbatches\":{},\
                 \"num_queries\":{},\"stages\":[{}]{svc_fields}{chaos_fields}}}",
                model.kind.name(),
                out.true_latency,
                out.plan.microbatches,
                out.num_queries,
                stages.join(",")
            );
        }
    }
    if let Some(path) = args.flags.get("plan-out") {
        if let Err(e) = std::fs::write(path, encode_plan(&out.plan)) {
            eprintln!("could not write plan to {path}: {e}");
            exit(1);
        }
        eprintln!("plan written to {path}");
    }
}

fn cmd_fit(args: &Args) {
    let Some(out_path) = args.flags.get("o") else {
        eprintln!("fit requires -o FILE");
        usage()
    };
    let model = args.model();
    let (mesh, config) = args.placement();
    let platform = args.platform();
    let profiler = SimProfiler::new(platform.clone(), args.seed());

    let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
    if !args.switches.iter().any(|s| s == "scaled") {
        arch = ArchConfig::paper(ModelKind::DagTransformer);
    }
    let num_stages = args.usize_flag("stages", 24);
    if num_stages < 3 {
        // the held-out split needs a training, a validation and a test stage
        eprintln!("--stages must be at least 3, got {num_stages}");
        usage()
    }
    let stages = sample_stages(model, num_stages, 4, args.seed());
    eprintln!(
        "profiling {} stages on {} {} [{}]...",
        stages.len(),
        platform.name,
        mesh.label(),
        config.remark()
    );
    let samples: Vec<GraphSample> = stages
        .iter()
        .map(|s| {
            let lat = profiler.stage_latency(s, mesh, config);
            GraphSample::new(&profiler.stage_graph(s), lat, arch.pe_dim())
        })
        .collect();
    let ds = Dataset::new(samples);
    let split = ds.split(0.8, args.seed());
    let mut net = arch.build(args.seed());
    eprintln!(
        "training DAG Transformer ({} layers x {})...",
        arch.layers, arch.hidden
    );
    let (scaler, report) = predtop::gnn::train::train(
        net.as_mut(),
        &ds,
        &split,
        &TrainConfig::quick(args.usize_flag("epochs", 60)),
    );
    let mre = predtop::gnn::train::eval_mre(net.as_ref(), &scaler, &ds, &split.test);
    // the gray-box file records the one scenario the predictor was fit
    // for, so `predict -m` answers no other
    let predictor = TrainedPredictor { model: net, scaler };
    let fitted = PredTop::new(
        arch,
        HashMap::from([((mesh, config), predictor)]),
        stages.len(),
    );
    std::fs::write(out_path, encode_graybox(&fitted)).unwrap_or_else(|e| {
        eprintln!("save failed: {e}");
        exit(1);
    });
    println!(
        "trained in {:.1}s ({} epochs), held-out MRE {:.2}%, saved to {out_path}",
        report.train_seconds, report.epochs_run, mre
    );
}

fn cmd_predict(args: &Args) {
    let Some(model_path) = args.flags.get("m") else {
        eprintln!("predict requires -m FILE");
        usage()
    };
    let model = args.model();
    let stage = args.stage(model);
    let mesh = args.mesh();
    let config = args.config();
    // the engine wires the predictor → analytic fallback chain: a
    // missing or undecodable model file degrades the answer instead of
    // aborting the command
    let engine = args.engine(Some(model_path.clone()));
    let request = api::Request::Predict(stage_request(&stage, mesh, config));
    let (seconds, source) = match engine.handle(&request) {
        api::Response::Latency { seconds, source } => (seconds, source),
        api::Response::Error(e) => {
            eprintln!("prediction failed: {}", e.message);
            exit(1)
        }
        other => {
            eprintln!("internal error: unexpected predict reply {other:?}");
            exit(1)
        }
    };
    let persist = engine.predict_report().persist;
    match args.format() {
        OutputFormat::Text => {
            println!(
                "{}: predicted latency {seconds:.6} s (source = {source})",
                stage.label()
            );
            if let Some(p) = &persist {
                println!("{}", p.summary());
            }
        }
        OutputFormat::Json => println!(
            "{{\"stage\":\"{}\",\"latency_s\":{:.9},\"source\":\"{}\"{}}}",
            stage.label(),
            seconds,
            source,
            persist
                .as_ref()
                .map(|p| flat_json_fields(p))
                .unwrap_or_default()
        ),
    }
}

/// `predtop serve` — the long-lived daemon: a framed wire protocol over
/// TCP and/or a Unix socket, every request executed by the same
/// [`ServeEngine`] the CLI commands use (DESIGN.md §14).
fn cmd_serve(args: &Args) {
    let listen = args.flags.get("listen").cloned();
    let socket = args.flags.get("socket").cloned();
    if listen.is_none() && socket.is_none() {
        eprintln!("serve requires --listen HOST:PORT and/or --socket PATH");
        usage();
    }
    let engine = args.engine(args.flags.get("m").cloned());
    let mut config = wire::ServerConfig::default();
    if args.flags.contains_key("max-connections") {
        config.max_connections = args
            .usize_flag("max-connections", config.max_connections)
            .max(1);
    }
    // SIGINT/SIGTERM request the same graceful drain a Shutdown frame
    // does: in-flight requests finish, new connections are refused
    wire::signal::install_drain_signals();
    let server = wire::Server::bind(listen.as_deref(), socket.as_deref().map(Path::new), config)
        .unwrap_or_else(|e| {
            eprintln!("serve bind failed: {e}");
            exit(1)
        });
    if let Some(addr) = server.tcp_addr() {
        eprintln!("serving on tcp {addr}");
    }
    if let Some(path) = &socket {
        eprintln!("serving on unix socket {path}");
    }
    let stats = server.run(|req| engine.handle(req)).unwrap_or_else(|e| {
        eprintln!("serve failed: {e}");
        exit(1)
    });
    eprintln!(
        "drained clean: {} request(s) served, {} shed, {} connection(s)",
        engine.served(),
        engine.shed(),
        stats.connections
    );
}

/// `predtop store stats|verify|gc --store DIR` — the object-store
/// maintenance surface (DESIGN.md §13).
fn cmd_store(args: &Args) {
    let Some(action) = args.action.as_deref() else {
        eprintln!("store requires an action: stats | verify | gc");
        usage()
    };
    let Some(store) = args.store() else {
        eprintln!("store requires --store DIR");
        usage()
    };
    let dir = &args.flags["store"];
    match action {
        "stats" => {
            let s = store.stats().unwrap_or_else(|e| {
                eprintln!("store stats failed: {e}");
                exit(1)
            });
            println!("object store at {dir} (generation {}):", s.generation);
            println!(
                "  loose:  {} objects, {} bytes",
                s.loose_objects, s.loose_bytes
            );
            println!(
                "  packed: {} objects, {} bytes in {} pack file(s)",
                s.packed_objects, s.pack_bytes, s.pack_files
            );
        }
        "verify" => {
            let report = store.verify().unwrap_or_else(|e| {
                eprintln!("store verify failed: {e}");
                exit(1)
            });
            println!(
                "verified {} objects ({} loose, {} packed): {}",
                report.checked,
                report.loose,
                report.packed,
                if report.is_clean() {
                    "clean"
                } else {
                    "CORRUPT"
                }
            );
            if !report.is_clean() {
                for (digest, reason) in &report.corrupt {
                    eprintln!("  corrupt {}: {reason}", digest.to_hex());
                }
                exit(1);
            }
        }
        "gc" => {
            let r = store.gc().unwrap_or_else(|e| {
                eprintln!("store gc failed: {e}");
                exit(1)
            });
            println!(
                "gc generation {}: packed {} objects ({} duplicates folded, \
                 {} corrupt dropped)",
                r.generation, r.packed, r.duplicates_folded, r.corrupt_dropped
            );
            println!(
                "  removed {} loose file(s) and {} prior pack(s); \
                 {} -> {} bytes",
                r.loose_removed, r.packs_removed, r.bytes_before, r.bytes_after
            );
        }
        other => {
            eprintln!("unknown store action `{other}` (stats|verify|gc)");
            usage()
        }
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "info" => cmd_info(),
        "profile" => cmd_profile(&args),
        "search" => cmd_search(&args),
        "fit" => cmd_fit(&args),
        "predict" => cmd_predict(&args),
        "store" => cmd_store(&args),
        "serve" => cmd_serve(&args),
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
