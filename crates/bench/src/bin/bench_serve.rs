//! Load generator for the `predtop serve` daemon.
//!
//! Drives a framed wire-protocol server with `--clients` concurrent
//! connections, each issuing `--requests` requests from a fixed
//! Profile/Predict/Stats mix. Arrivals are **open-loop**: with
//! `--rate R` each client schedules its sends on a fixed timetable
//! (aggregate R requests/s across all clients) and a request's latency
//! is measured from its *scheduled* arrival, so server-side queueing is
//! charged to the server rather than silently absorbed by a slow client
//! (no coordinated omission).
//!
//! Three targets:
//!
//! * default — self-host an in-process server on a loopback TCP port
//!   (no external setup; what `cargo run --bin bench_serve` measures);
//! * `--connect HOST:PORT` — an already-running daemon over TCP;
//! * `--connect-socket PATH` — an already-running daemon's Unix socket
//!   (what the CI smoke gate uses).
//!
//! `--shutdown` sends a `Shutdown` frame after the load so the target
//! daemon drains and exits; self-hosted runs always shut down.
//!
//! Results land as stable-schema JSON (default `BENCH_serve.json`;
//! override with `--out PATH`): request counts by outcome and the
//! p50/p99/p99.9/max latency of the mix.
//!
//! ```sh
//! cargo run --release --bin bench_serve
//! cargo run --release --bin bench_serve -- --smoke
//! cargo run --release --bin bench_serve -- --connect-socket /tmp/predtop.sock --smoke --shutdown
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use predtop_bench::jsonout::{write_json_file, Json};
use predtop_cluster::Platform;
use predtop_core::{EngineConfig, ServeEngine};
use predtop_models::ModelSpec;
use predtop_parallel::{MeshShape, ParallelConfig};
use predtop_service::api::{ErrorKind, ProfileSpec, Request, Response};
use predtop_service::wire::{Client, Server, ServerConfig};

struct Cli {
    out: PathBuf,
    smoke: bool,
    clients: usize,
    requests: usize,
    warmup: usize,
    rate: f64,
    connect: Option<String>,
    connect_socket: Option<PathBuf>,
    shutdown: bool,
}

fn parse_cli() -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        out: PathBuf::from("BENCH_serve.json"),
        smoke: false,
        clients: 8,
        requests: 128,
        warmup: 16,
        rate: 400.0,
        connect: None,
        connect_socket: None,
        shutdown: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                cli.out = PathBuf::from(argv.get(i).expect("--out PATH"));
            }
            "--clients" => {
                i += 1;
                cli.clients = argv
                    .get(i)
                    .expect("--clients N")
                    .parse()
                    .expect("--clients N");
            }
            "--requests" => {
                i += 1;
                cli.requests = argv
                    .get(i)
                    .expect("--requests N")
                    .parse()
                    .expect("--requests N");
            }
            "--warmup" => {
                i += 1;
                cli.warmup = argv
                    .get(i)
                    .expect("--warmup N")
                    .parse()
                    .expect("--warmup N");
            }
            "--rate" => {
                i += 1;
                cli.rate = argv
                    .get(i)
                    .expect("--rate RPS")
                    .parse()
                    .expect("--rate RPS");
            }
            "--connect" => {
                i += 1;
                cli.connect = Some(argv.get(i).expect("--connect HOST:PORT").clone());
            }
            "--connect-socket" => {
                i += 1;
                cli.connect_socket =
                    Some(PathBuf::from(argv.get(i).expect("--connect-socket PATH")));
            }
            "--shutdown" => cli.shutdown = true,
            "--smoke" => {
                cli.smoke = true;
                cli.clients = 4;
                cli.requests = 16;
                cli.warmup = 4;
                cli.rate = 200.0;
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`\nusage: [--smoke] [--clients N] [--requests N] \
                     [--warmup N] [--rate RPS] [--connect HOST:PORT] [--connect-socket PATH] \
                     [--shutdown] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cli
}

/// The CLI's `--scaled` GPT-3 benchmark: small enough that one request
/// is milliseconds, structured enough that the stack's memoize and
/// batching layers all participate.
fn bench_model() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 128;
    m.hidden = 128;
    m.num_heads = 8;
    m.vocab = 2048;
    m.num_layers = 8;
    m
}

fn stage_spec(start: usize) -> ProfileSpec {
    ProfileSpec {
        model: bench_model(),
        start,
        end: start + 2,
        mesh: MeshShape::new(1, 1),
        config: ParallelConfig::new(1, 1),
    }
}

/// The fixed request mix: mostly Profile, a fifth Predict, one Stats
/// poll every eighth request — a serving workload, not a single hot
/// key (the stage window rotates through the model).
fn request_for(i: usize) -> Request {
    if i % 8 == 7 {
        Request::Stats
    } else if i % 5 == 4 {
        Request::Predict(stage_spec(i % 6))
    } else {
        Request::Profile(stage_spec(i % 6))
    }
}

/// One benchmark connection: TCP or Unix, behind one stream type so the
/// load loop is transport-agnostic.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[derive(Clone)]
enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Target {
    fn connect(&self) -> Conn {
        match self {
            Target::Tcp(addr) => {
                let s = TcpStream::connect(addr).expect("connect to bench target");
                s.set_nodelay(true).ok();
                Conn::Tcp(s)
            }
            #[cfg(unix)]
            Target::Unix(path) => {
                Conn::Unix(UnixStream::connect(path).expect("connect to bench socket"))
            }
        }
    }
}

/// Per-run outcome counters plus every request's corrected latency.
#[derive(Default)]
struct LoadResult {
    served: u64,
    shed: u64,
    deadline_errors: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
    wall_seconds: f64,
}

fn run_load(
    target: &Target,
    clients: usize,
    requests: usize,
    warmup: usize,
    rate: f64,
) -> LoadResult {
    // aggregate open-loop rate → one fixed inter-arrival per client
    let interval = if rate > 0.0 {
        Some(Duration::from_secs_f64(clients as f64 / rate))
    } else {
        None
    };
    let per_client: Vec<LoadResult> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(target.connect());
                    let mut r = LoadResult::default();
                    // unmeasured warm-up (closed loop): fill the server's
                    // memoize tiers so the timed run sees steady-state
                    // serving, not first-touch graph construction
                    for i in 0..warmup {
                        client
                            .call(&request_for(c * requests + i))
                            .expect("warm-up request failed");
                    }
                    let start = Instant::now();
                    for i in 0..requests {
                        let scheduled = interval.map(|dt| dt * i as u32);
                        if let Some(at) = scheduled {
                            let elapsed = start.elapsed();
                            if at > elapsed {
                                std::thread::sleep(at - elapsed);
                            }
                        }
                        // latency from the *scheduled* arrival: a
                        // backed-up server pays for its queue
                        let sent_at = scheduled.unwrap_or_else(|| start.elapsed());
                        let resp = client
                            .call(&request_for(c * requests + i))
                            .expect("bench request failed at the transport layer");
                        let latency = start.elapsed().saturating_sub(sent_at);
                        r.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        match resp {
                            Response::Latency { .. } | Response::Search(_) | Response::Stats(_) => {
                                r.served += 1
                            }
                            Response::Error(body) if body.kind == ErrorKind::Shed => r.shed += 1,
                            Response::Error(body) if body.kind == ErrorKind::Deadline => {
                                r.deadline_errors += 1
                            }
                            Response::Error(_) => r.errors += 1,
                            Response::Bye => r.errors += 1,
                        }
                    }
                    r.wall_seconds = start.elapsed().as_secs_f64();
                    r
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    // wall clock of the measured (post-warm-up) phase: the slowest
    // client's timed loop bounds the run
    let mut total = LoadResult::default();
    for r in per_client {
        total.wall_seconds = total.wall_seconds.max(r.wall_seconds);
        total.served += r.served;
        total.shed += r.shed;
        total.deadline_errors += r.deadline_errors;
        total.errors += r.errors;
        total.latencies_ms.extend(r.latencies_ms);
    }
    total.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    total
}

/// The `q`-quantile of an ascending latency vector (nearest-rank).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn main() {
    let cli = parse_cli();
    let external = cli.connect.is_some() || cli.connect_socket.is_some();

    let target = if let Some(path) = &cli.connect_socket {
        #[cfg(unix)]
        {
            Target::Unix(path.clone())
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            eprintln!("--connect-socket needs Unix sockets; use --connect HOST:PORT");
            std::process::exit(2);
        }
    } else if let Some(addr) = &cli.connect {
        Target::Tcp(addr.clone())
    } else {
        Target::Tcp(String::new()) // replaced once the self-hosted server binds
    };

    let transport = match (&cli.connect_socket, &cli.connect) {
        (Some(_), _) => "unix",
        (None, Some(_)) => "tcp",
        (None, None) => "tcp-selfhost",
    };

    let run = |target: &Target| {
        eprintln!(
            "driving {} client(s) x {} request(s) at {} req/s aggregate ({} warm-up each)...",
            cli.clients, cli.requests, cli.rate, cli.warmup
        );
        let result = run_load(target, cli.clients, cli.requests, cli.warmup, cli.rate);
        // one tail connection reads the server's own ledger, and — when
        // asked — drains it
        let mut tail = Client::new(target.connect());
        let (server_served, server_shed) = match tail.call(&Request::Stats) {
            Ok(Response::Stats(report)) => (report.served, report.shed),
            _ => (0, 0),
        };
        if cli.shutdown || !external {
            match tail.call(&Request::Shutdown) {
                Ok(Response::Bye) => eprintln!("server acknowledged shutdown"),
                other => eprintln!("shutdown not acknowledged: {other:?}"),
            }
        }
        (result, server_served, server_shed)
    };

    let (result, server_served, server_shed) = if external {
        run(&target)
    } else {
        // self-host: the same engine + server `predtop serve` runs,
        // in-process on a loopback port
        let engine = ServeEngine::new(EngineConfig::new(Platform::platform2(), "2", 7))
            .expect("build self-hosted engine");
        let server = Server::bind(Some("127.0.0.1:0"), None, ServerConfig::default())
            .expect("bind self-hosted server");
        let addr = server.tcp_addr().expect("self-hosted TCP address");
        let target = Target::Tcp(addr.to_string());
        std::thread::scope(|scope| {
            let srv = scope.spawn(|| server.run(|req| engine.handle(req)).expect("server run"));
            let out = run(&target);
            let stats = srv.join().expect("server thread");
            eprintln!(
                "self-hosted server drained after {} connection(s)",
                stats.connections
            );
            out
        })
    };

    let total = cli.clients * cli.requests;
    let throughput = total as f64 / result.wall_seconds.max(1e-9);
    println!(
        "{} request(s) in {:.3}s ({:.0} req/s): {} served, {} shed, {} deadline, {} errors",
        total,
        result.wall_seconds,
        throughput,
        result.served,
        result.shed,
        result.deadline_errors,
        result.errors
    );
    println!(
        "latency p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, max {:.3} ms",
        percentile(&result.latencies_ms, 0.50),
        percentile(&result.latencies_ms, 0.99),
        percentile(&result.latencies_ms, 0.999),
        percentile(&result.latencies_ms, 1.0),
    );

    let doc = Json::obj()
        .field("schema_version", 2u64)
        .field("benchmark", "bench_serve")
        .field("mode", if cli.smoke { "smoke" } else { "full" })
        .field(
            "available_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("kernel_isa", predtop_tensor::active_isa().name())
        .field("transport", transport)
        .field("clients", cli.clients)
        .field("requests_per_client", cli.requests)
        .field("warmup_per_client", cli.warmup)
        .field("rate_rps", cli.rate)
        .field("served", result.served)
        .field("shed", result.shed)
        .field("deadline_errors", result.deadline_errors)
        .field("errors", result.errors)
        .field("p50_ms", percentile(&result.latencies_ms, 0.50))
        .field("p99_ms", percentile(&result.latencies_ms, 0.99))
        .field("p999_ms", percentile(&result.latencies_ms, 0.999))
        .field("max_ms", percentile(&result.latencies_ms, 1.0))
        .field("wall_seconds", result.wall_seconds)
        .field("throughput_rps", throughput)
        .field("server_served", server_served)
        .field("server_shed", server_shed);
    write_json_file(&cli.out, &doc);
    println!("saved {}", cli.out.display());
}
