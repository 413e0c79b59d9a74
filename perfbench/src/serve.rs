//! `serve-mix`: the daemon's request path. A `wire::Server` with a
//! `ServeEngine` behind it listens on a Unix socket; two client
//! connections run a closed loop (each sends its next request when the
//! previous reply arrives) of a seeded mix:
//!
//! | kind | how often | what it exercises |
//! |---|---|---|
//! | hot `Profile` | 70% of drawn requests | memoized simulator replies |
//! | `Predict` | 17.5% of drawn requests | the analytic fallback (no saved model) |
//! | `Stats` | 12.5% of drawn requests | ledger rendering |
//! | cold `Profile` | 10 per second per client | a one-layer key never seen in the run: the simulator |
//! | `Search` | 1 per second per client | scaled GPT-3 plan search, half of them `checked` |
//!
//! The drawn shares are those of the repository's serving benchmark
//! (`bench_serve`). Cold profiles and searches are synthetic and come on
//! a fixed schedule, not as shares, so how much of them a run holds does
//! not follow its throughput: each cold key leaves about 45 KB of stage
//! graph in the engine's caches (as a share, a faster server would read
//! as a memory regression), and a search takes 4 to 50 ms (as a share of
//! millions of requests, searches took half the clients' time). At these
//! rates they add about 30 MB and take about 2% of a 30-second run. The
//! median falls inside the hot profiles and predictions (about ten
//! microseconds), away from the slower `Stats` share.
//!
//! Set-up builds the engine, binds the server, and warms the hot keys
//! and the search path (one unchecked and one checked search).
//! A seeded sample of replies is checked byte for byte against a fresh
//! in-process `ServeEngine::handle` after the run.
//!
//! The engine runs without a disk tier: with one, every cold key is a
//! synchronous file create and rename whose latency on a shared disk
//! swung the run-to-run figures threefold. The store's write side is
//! measured by `checked-moe-warm` instead.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use predtop_cluster::Platform;
use predtop_core::{EngineConfig, ServeEngine};
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::interstage::candidate_submeshes;
use predtop_parallel::{table3_configs, MeshShape, ParallelConfig, StageLatencyProvider};
use predtop_service::api::{
    decode_request, decode_response, encode_request, encode_response, ProfileSpec, Request,
    Response, SearchSpec,
};
use predtop_service::wire::{read_frame, write_frame, Server, ServerConfig};
use predtop_service::ServiceReport;
use predtop_sim::SimProfiler;

use crate::report::{median, peak_rss_mb, percentile, OpTimes, Rng};
use crate::{Checks, Ctx, Outcome};

/// Client connections driving the closed loop (the box's core count).
const CLIENTS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Hot `Profile` keys are interior windows of 1 to this many layers.
const HOT_WINDOW_MAX: usize = 3;
/// Work replies (not `Stats`) each client keeps, in a seeded reservoir
/// over the whole run, to check byte for byte; every cold reply is
/// checked besides. A fixed count, so the benchmark's own memory does
/// not grow with throughput.
const CHECK_RESERVOIR: usize = 2048;
/// The round trip of one request in this many is kept for the latency
/// figures (every request is counted).
const RTT_SAMPLE_EVERY: u64 = 32;
/// Simulator seed of the served engine.
const SIM_SEED: u64 = 7;
/// Cold `Profile` and `Search` requests each client sends per second,
/// on a fixed schedule (see the module notes).
const COLD_PER_SECOND: f64 = 10.0;
const SEARCH_PER_SECOND: f64 = 1.0;
/// A traced run turns tracing on for one slice of this many
/// milliseconds in every [`TRACE_PERIOD`], so traced and untraced
/// requests interleave over the whole run.
const TRACE_SLICE_MS: u64 = 50;
const TRACE_PERIOD: u64 = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hot,
    Predict,
    Stats,
    Cold,
    Search,
}

const KINDS: [Kind; 5] = [
    Kind::Hot,
    Kind::Predict,
    Kind::Stats,
    Kind::Cold,
    Kind::Search,
];

impl Kind {
    /// Share of the drawn mix, in parts per 10 000. Cold profiles and
    /// searches are not drawn: they come on a schedule.
    fn share(self) -> usize {
        match self {
            Kind::Hot => 7000,
            Kind::Predict => 1750,
            Kind::Stats => 1250,
            Kind::Cold | Kind::Search => 0,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "hot_profile",
            Kind::Predict => "predict",
            Kind::Stats => "stats",
            Kind::Cold => "cold_profile",
            Kind::Search => "search",
        }
    }

    fn draw(rng: &mut Rng) -> Kind {
        let mut x = rng.below(10_000);
        for k in KINDS {
            if x < k.share() {
                return k;
            }
            x -= k.share();
        }
        Kind::Hot
    }
}

/// The CLI's `--scaled` GPT-3.
fn scaled_gpt3() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 128;
    m.hidden = 128;
    m.num_heads = 8;
    m.vocab = 2048;
    m.num_layers = 8;
    m
}

/// Every (sub-mesh, configuration) scenario of Platform 2's 2×2 cluster.
fn scenarios() -> Vec<(MeshShape, ParallelConfig)> {
    candidate_submeshes(MeshShape::new(2, 2))
        .into_iter()
        .flat_map(|mesh| table3_configs(mesh).into_iter().map(move |c| (mesh, c)))
        .collect()
}

/// A seeded stage window (1–2 layers) of `model` on a seeded scenario.
fn random_spec(
    rng: &mut Rng,
    model: ModelSpec,
    scenarios: &[(MeshShape, ParallelConfig)],
) -> ProfileSpec {
    let len = 1 + rng.below(2);
    let start = rng.below(model.num_layers - len + 1);
    let (mesh, config) = scenarios[rng.below(scenarios.len())];
    ProfileSpec {
        model,
        start,
        end: start + len,
        mesh,
        config,
    }
}

/// The seeded inputs of one run: the hot key set, and the stream that
/// picks each client's request order and cold keys.
struct Inputs {
    seed: u64,
    hot: Vec<ProfileSpec>,
    scenarios: Vec<(MeshShape, ParallelConfig)>,
    /// Cold keys take distinct sequence lengths, so no two are alike
    /// and none matches a hot key.
    cold_seq: AtomicU64,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let scenarios = scenarios();
        let mut rng = Rng::new(seed, 0);
        // one interior window of each length per scenario: the seed
        // picks where each window starts, never how much warming costs
        let model = scaled_gpt3();
        let mut hot = Vec::new();
        for &(mesh, config) in &scenarios {
            for len in 1..=HOT_WINDOW_MAX {
                let start = 1 + rng.below(model.num_layers - len - 1);
                hot.push(ProfileSpec {
                    model,
                    start,
                    end: start + len,
                    mesh,
                    config,
                });
            }
        }
        Inputs {
            seed,
            hot,
            scenarios,
            cold_seq: AtomicU64::new(0),
        }
    }

    fn request(&self, kind: Kind, rng: &mut Rng) -> Request {
        match kind {
            Kind::Hot => Request::Profile(self.hot[rng.below(self.hot.len())].clone()),
            Kind::Predict => Request::Predict(random_spec(rng, scaled_gpt3(), &self.scenarios)),
            Kind::Stats => Request::Stats,
            Kind::Cold => {
                let mut model = scaled_gpt3();
                model.seq_len = 129 + self.cold_seq.fetch_add(1, Ordering::Relaxed) as usize;
                // one interior layer: no embedding or head, so every cold
                // key costs about the same
                let start = 1 + rng.below(model.num_layers - 2);
                let (mesh, config) = self.scenarios[rng.below(self.scenarios.len())];
                Request::Profile(ProfileSpec {
                    model,
                    start,
                    end: start + 1,
                    mesh,
                    config,
                })
            }
            Kind::Search => Request::Search(SearchSpec {
                model: scaled_gpt3(),
                microbatches: 2,
                imbalance_tolerance: None,
                checked: rng.below(2) == 1,
            }),
        }
    }
}

/// One framed call; the request encoding and reply decoding are timed
/// as the wire layer's client side.
fn call(
    ctx: &Ctx,
    stream: &mut UnixStream,
    req: &Request,
) -> Result<(Vec<u8>, Vec<u8>, Response), String> {
    let tracer = &ctx.tracer;
    let bytes = tracer.span("wire.encode_request", || encode_request(req));
    write_frame(stream, &bytes).map_err(|e| format!("send failed: {e}"))?;
    stream.flush().map_err(|e| format!("send failed: {e}"))?;
    let payload = read_frame(stream)
        .map_err(|e| format!("receive failed: {e}"))?
        .ok_or("server closed the connection")?;
    let resp = tracer
        .span("wire.decode_response", || decode_response(&payload))
        .map_err(|e| format!("undecodable reply: {e}"))?;
    Ok((bytes, payload, resp))
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Requests sent.
    sent: u64,
    /// Requests sent while tracing was on, and their summed round trips.
    traced: u64,
    traced_rtt_s: f64,
    /// (kind, round-trip seconds, whether tracing was on) of every
    /// [`RTT_SAMPLE_EVERY`]-th request, compact so the benchmark's own
    /// memory hardly grows with throughput.
    requests: Vec<(Kind, f32, bool)>,
    /// Round trips of every scheduled (cold or search) request, for the
    /// per-kind figures.
    scheduled: Vec<(Kind, f64)>,
    failed: u64,
    /// (request, reply bytes) for the byte-equality check: a seeded
    /// reservoir of work replies, and every cold reply.
    sample: Vec<(Request, Vec<u8>)>,
    cold_sample: Vec<(Request, Vec<u8>)>,
    /// Cold keys sent while tracing was on, replayed by the simulator
    /// probe.
    traced_cold: Vec<ProfileSpec>,
    end: Option<Instant>,
}

fn client_loop(ctx: &Ctx, inputs: &Inputs, socket: &Path, id: usize, start: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-mix: client {id} could not connect: {e}");
            log.failed += 1;
            return log;
        }
    };
    let mut rng = Rng::new(inputs.seed, 1 + id as u64);
    let mut sampler = Rng::new(inputs.seed, 1 + (CLIENTS + id) as u64);
    let mut work_replies = 0usize;
    // (kind, seconds between two, next due); the clients' schedules
    // are staggered
    let stagger = (id as f64 + 0.5) / CLIENTS as f64;
    let (search_every, cold_every) = (1.0 / SEARCH_PER_SECOND, 1.0 / COLD_PER_SECOND);
    let mut scheduled = [
        (Kind::Search, search_every, search_every * stagger),
        (Kind::Cold, cold_every, cold_every * stagger),
    ];
    loop {
        let now = start.elapsed().as_secs_f64();
        if now >= ctx.seconds {
            break;
        }
        let due = scheduled.iter_mut().find(|(_, _, next)| now >= *next);
        let kind = match due {
            Some((kind, every, next)) => {
                *next += *every;
                *kind
            }
            None => Kind::draw(&mut rng),
        };
        let req = inputs.request(kind, &mut rng);
        let traced = ctx.tracer.enabled();
        let sent = Instant::now();
        let result = call(ctx, &mut stream, &req);
        let rtt = sent.elapsed().as_secs_f64();
        if log.sent % RTT_SAMPLE_EVERY == 0 {
            log.requests.push((kind, rtt as f32, traced));
        }
        if matches!(kind, Kind::Cold | Kind::Search) {
            log.scheduled.push((kind, rtt));
        }
        log.sent += 1;
        if traced {
            log.traced += 1;
            log.traced_rtt_s += rtt;
        }
        match result {
            Ok((bytes, payload, resp)) => {
                if matches!(resp, Response::Error(_) | Response::Bye) {
                    log.failed += 1;
                }
                if kind == Kind::Cold {
                    log.cold_sample.push((req.clone(), payload));
                } else if kind != Kind::Stats {
                    // reservoir sampling: every work reply of the run is
                    // equally likely to be kept
                    work_replies += 1;
                    if work_replies <= CHECK_RESERVOIR {
                        log.sample.push((req.clone(), payload));
                    } else {
                        let slot = sampler.below(work_replies);
                        if slot < CHECK_RESERVOIR {
                            log.sample[slot] = (req.clone(), payload);
                        }
                    }
                }
                if traced {
                    // the server-side codec runs inside `wire::Server`;
                    // replay it on the same bytes to time it
                    let tracer = &ctx.tracer;
                    let _ = tracer.span("wire.decode_request", || decode_request(&bytes));
                    tracer.span("wire.encode_response", || encode_response(&resp));
                    if let (Kind::Cold, Request::Profile(spec)) = (kind, req) {
                        log.traced_cold.push(spec);
                    }
                }
            }
            Err(e) => {
                eprintln!("serve-mix: client {id}: {e}");
                log.failed += 1;
                break;
            }
        }
    }
    log.end = Some(Instant::now());
    log
}

/// The served engine (no disk tier; see the module notes).
fn engine_config(ctx: &Ctx) -> EngineConfig {
    let mut cfg = EngineConfig::new(Platform::platform2(), "2", SIM_SEED);
    cfg.threads = ctx.threads;
    cfg
}

/// Everything the measured session produced.
struct Session {
    logs: Vec<ClientLog>,
    start: Instant,
    served: u64,
    shed: u64,
    profiles: usize,
    queries: usize,
    report: ServiceReport,
}

/// Build the engine and server and warm the hot keys (the timed
/// set-up), then run the load when `measure` is set; drain the server
/// either way.
fn session(
    ctx: &Ctx,
    inputs: &Inputs,
    dir: &Path,
    measure: bool,
    setup_s: &mut Vec<f64>,
) -> Result<Option<Session>, String> {
    let started = Instant::now();
    let engine = ServeEngine::new(engine_config(ctx))?;
    let socket = dir.join("s.sock");
    let server = Server::bind(
        None,
        Some(&socket),
        ServerConfig {
            max_connections: CLIENTS + 2,
            drain_grace_polls: 2,
        },
    )
    .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    let tracer = &ctx.tracer;
    std::thread::scope(|scope| {
        let srv =
            scope.spawn(|| server.run(|req| tracer.span("core.handle", || engine.handle(req))));
        let result = (|| -> Result<Option<Session>, String> {
            let mut warm = UnixStream::connect(&socket).map_err(|e| format!("connect: {e}"))?;
            let warm_search = |checked| {
                Request::Search(SearchSpec {
                    model: scaled_gpt3(),
                    microbatches: 2,
                    imbalance_tolerance: None,
                    checked,
                })
            };
            let warm_up = inputs
                .hot
                .iter()
                .flat_map(|spec| {
                    [
                        Request::Profile(spec.clone()),
                        Request::Predict(spec.clone()),
                    ]
                })
                .chain([warm_search(false), warm_search(true)]);
            for req in warm_up {
                match call(ctx, &mut warm, &req)?.2 {
                    Response::Latency { .. } | Response::Search(_) => {}
                    other => return Err(format!("warm-up request failed: {other:?}")),
                }
            }
            setup_s.push(started.elapsed().as_secs_f64());
            if !measure {
                return Ok(None);
            }
            let start = Instant::now();
            let logs: Vec<ClientLog> = std::thread::scope(|inner| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|id| {
                        let socket = &socket;
                        inner.spawn(move || client_loop(ctx, inputs, socket, id, start))
                    })
                    .collect();
                if ctx.trace {
                    // traced and untraced slices interleave, so the
                    // difference between them is the tracing overhead
                    // and not drift over the run
                    let mut slice = 0u64;
                    while start.elapsed().as_secs_f64() < ctx.seconds {
                        tracer.set_enabled(slice.is_multiple_of(TRACE_PERIOD));
                        std::thread::sleep(std::time::Duration::from_millis(TRACE_SLICE_MS));
                        slice += 1;
                    }
                    tracer.set_enabled(false);
                }
                clients
                    .into_iter()
                    .map(|c| c.join().unwrap_or_default())
                    .collect()
            });
            tracer.set_enabled(false);
            Ok(Some(Session {
                logs,
                start,
                served: engine.served(),
                shed: engine.shed(),
                profiles: engine.profiler().profiles_taken(),
                queries: engine.profiler().queries_issued(),
                report: engine.report(),
            }))
        })();
        // drain: a Shutdown frame ends the server; wait for it
        if let Ok(mut tail) = UnixStream::connect(&socket) {
            let _ = call(ctx, &mut tail, &Request::Shutdown);
        }
        match (result, srv.join()) {
            (Err(e), _) => Err(e),
            (Ok(s), Ok(Ok(_))) => Ok(s),
            (Ok(_), _) => Err("server did not drain cleanly".to_string()),
        }
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = Inputs::new(ctx.seed);
    let dir: PathBuf = ctx.out_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(ctx, &inputs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(ctx: &Ctx, inputs: &Inputs, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let mut times = OpTimes::default();
    let mut measured = None;
    for rep in 0..SETUP_REPS {
        inputs.cold_seq.store(0, Ordering::Relaxed);
        measured = session(ctx, inputs, dir, rep + 1 == SETUP_REPS, &mut times.setup_s)?;
    }
    let s = measured.ok_or("measured session produced nothing")?;
    times.peak_rss_mb = peak_rss_mb();

    let end = s.logs.iter().filter_map(|l| l.end).max().unwrap_or(s.start);
    times.wall_s = end.duration_since(s.start).as_secs_f64();
    times.completed = s.logs.iter().map(|l| l.sent).sum::<u64>() as usize;
    let mut by_kind: Vec<(Kind, f64)> = Vec::new();
    for log in &s.logs {
        out.failed += log.failed;
        out.attempted += log.sent;
        by_kind.extend(&log.scheduled);
        for &(kind, rtt, traced) in &log.requests {
            let rtt = f64::from(rtt);
            if !matches!(kind, Kind::Cold | Kind::Search) {
                by_kind.push((kind, rtt));
            }
            if traced {
                out.traced_op_s.push(rtt);
            } else {
                times.op_s.push(rtt);
            }
        }
    }
    for kind in KINDS {
        let ms: Vec<f64> = by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s * 1e3)
            .collect();
        out.facts.push((
            kind.name(),
            format!(
                "timed={} p50_ms={} p99_ms={}",
                ms.len(),
                percentile(&ms, 0.5),
                percentile(&ms, 0.99)
            ),
        ));
    }
    checks.check(s.shed == 0, || format!("{} requests shed", s.shed));

    // Byte-equality of a seeded sample of replies against a fresh
    // in-process engine.
    let fresh = ServeEngine::new(engine_config(ctx))?;
    let mut compared = 0usize;
    for log in &s.logs {
        for (req, reply) in log.sample.iter().chain(&log.cold_sample) {
            compared += 1;
            let expect = encode_response(&fresh.handle(req));
            checks.check(&expect == reply, || {
                format!("reply to {req:?} differs from a fresh engine")
            });
        }
    }
    checks.check(compared > 0, || {
        "no reply was sampled for checking".to_string()
    });
    out.facts.push(("replies_checked", compared.to_string()));

    if ctx.trace {
        layers(ctx, &s, &mut out);
    }
    out.times = times;
    out.checks = checks;
    Ok(out)
}

/// Per-layer metrics of the traced slices, per traced request.
fn layers(ctx: &Ctx, s: &Session, out: &mut Outcome) {
    let tracer = &ctx.tracer;
    let traced = s.logs.iter().map(|l| l.traced).sum::<u64>();
    let traced_rtt_s = s.logs.iter().map(|l| l.traced_rtt_s).sum::<f64>();
    let n = traced.max(1) as f64;
    // The engine calls the simulator from inside; probe it on the cold
    // keys of the traced slices.
    tracer.set_enabled(true);
    let probe = SimProfiler::new(Platform::platform2(), SIM_SEED);
    for spec in s.logs.iter().flat_map(|l| l.traced_cold.iter()) {
        let stage: StageSpec = spec.stage();
        tracer.span("models.build_graph", || probe.stage_graph(&stage));
        tracer.span("sim.profile", || {
            probe.stage_latency(&stage, spec.mesh, spec.config)
        });
    }
    tracer.set_enabled(false);

    let t = tracer.layer_times();
    let cache = s.report.cache.unwrap_or_default();
    let per_req = |name: &str| t.self_s(name) / n;
    let l = &mut out.layers;
    l.put_timed(
        "models.build_graph_s",
        per_req("models.build_graph"),
        "s",
        t.count("models.build_graph"),
    );
    l.put(
        "models.build_graph_calls",
        t.count("models.build_graph") as f64 / n,
        "count",
    );
    l.put_timed(
        "sim.profile_s",
        per_req("sim.profile"),
        "s",
        t.count("sim.profile"),
    );
    l.put("sim.profiles", s.profiles as f64, "count");
    l.put("sim.queries", s.queries as f64, "count");
    l.put("service.memo_hit_rate", cache.hit_rate(), "ratio");
    l.put("service.memo_misses", cache.misses as f64, "count");
    l.put(
        "service.batch_chunks",
        s.report.batch.map_or(0, |b| b.chunks) as f64,
        "count",
    );
    l.put_timed(
        "core.handle_s",
        per_req("core.handle"),
        "s",
        t.count("core.handle"),
    );
    l.put("core.served", s.served as f64, "count");
    l.put("core.shed", s.shed as f64, "count");
    for name in [
        "wire.encode_request",
        "wire.decode_request",
        "wire.encode_response",
        "wire.decode_response",
    ] {
        l.put_timed(&format!("{name}_s"), per_req(name), "s", t.count(name));
    }
    l.put_timed(
        "wire.round_trip_overhead_ms",
        1e3 * (traced_rtt_s - t.total_s("core.handle")) / n,
        "ms",
        traced as usize,
    );
    out.facts.push((
        "traced_rtt_p50_ms",
        format!("{}", 1e3 * median(&out.traced_op_s)),
    ));
}
