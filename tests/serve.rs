//! Integration tests for the `predtop serve` wire protocol: an
//! in-process [`wire::Server`] on a Unix socket, driven by real
//! [`wire::Client`] connections, executing requests through the same
//! [`ServeEngine`] the CLI uses.
#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;

use predtop::prelude::*;

/// The CLI's `--scaled` GPT-3 benchmark, replicated so wire replies can
/// be compared against direct engine calls on identical inputs.
fn scaled_model() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 128;
    m.hidden = 128;
    m.num_heads = 8;
    m.vocab = 2048;
    m.num_layers = 8;
    m
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(Platform::platform2(), "2", 7)
}

fn profile_spec(start: usize) -> api::ProfileSpec {
    api::ProfileSpec {
        model: scaled_model(),
        start,
        end: start + 2,
        mesh: MeshShape::new(1, 1),
        config: ParallelConfig::new(1, 1),
    }
}

/// A per-test socket path that cannot collide across the test threads
/// sharing this process.
fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("predtop-serve-{name}-{}.sock", std::process::id()))
}

fn connect(path: &PathBuf) -> wire::Client<UnixStream> {
    wire::Client::new(UnixStream::connect(path).expect("connect to test server"))
}

#[test]
fn four_concurrent_clients_get_replies_bit_identical_to_direct_calls() {
    let path = socket_path("bit-identical");
    let engine = ServeEngine::new(engine_config()).expect("build served engine");
    let direct = ServeEngine::new(engine_config()).expect("build direct engine");
    let server = wire::Server::bind(None, Some(&path), wire::ServerConfig::default())
        .expect("bind unix server");

    let requests = |client: usize| {
        vec![
            api::Request::Profile(profile_spec(client)),
            api::Request::Search(api::SearchSpec {
                model: scaled_model(),
                microbatches: 2,
                imbalance_tolerance: None,
                checked: false,
            }),
            api::Request::Predict(profile_spec(client)),
        ]
    };

    let (replies, stats) = std::thread::scope(|scope| {
        let srv = scope.spawn(|| server.run(|req| engine.handle(req)).expect("server run"));
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let path = &path;
                scope.spawn(move || {
                    let mut client = connect(path);
                    requests(c)
                        .iter()
                        .map(|req| client.call(req).expect("wire call"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let replies: Vec<Vec<api::Response>> =
            clients.into_iter().map(|c| c.join().unwrap()).collect();

        // the live stats surface answers over the same connection kind
        let mut tail = connect(&path);
        match tail.call(&api::Request::Stats).expect("stats call") {
            api::Response::Stats(report) => {
                assert_eq!(report.served, 12, "4 clients x 3 requests all served");
                assert_eq!(report.shed, 0);
                assert!(!report.draining);
                assert!(
                    report.ledgers.iter().any(|l| l.name == "breaker"),
                    "admission ledger always present in wire stats"
                );
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        // Shutdown is acknowledged and ends the server
        match tail.call(&api::Request::Shutdown).expect("shutdown call") {
            api::Response::Bye => {}
            other => panic!("expected Bye, got {other:?}"),
        }
        (replies, srv.join().unwrap())
    });

    assert_eq!(stats.connections, 5, "4 clients + the stats/shutdown tail");
    // every wire reply is bit-identical (canonical encoding compare) to
    // the same request executed directly against an identical engine
    for (c, client_replies) in replies.iter().enumerate() {
        for (req, wire_reply) in requests(c).iter().zip(client_replies) {
            let direct_reply = direct.handle(req);
            assert_eq!(
                api::encode_response(wire_reply),
                api::encode_response(&direct_reply),
                "client {c} reply diverged for {req:?}"
            );
        }
    }
}

#[test]
fn drain_finishes_in_flight_connections_and_refuses_new_ones() {
    let path = socket_path("drain");
    let engine = ServeEngine::new(engine_config()).expect("build engine");
    // the connection reads the drain flag when it takes the next frame,
    // so it must not be closed as idle however long the client stalls
    let config = wire::ServerConfig {
        drain_grace_polls: u32::MAX,
        ..wire::ServerConfig::default()
    };
    let server = wire::Server::bind(None, Some(&path), config).expect("bind");
    let drain = server.drain_handle();

    std::thread::scope(|scope| {
        let srv = scope.spawn(|| server.run(|req| engine.handle(req)).expect("server run"));

        let mut client = connect(&path);
        match client.call(&api::Request::Profile(profile_spec(0))) {
            Ok(api::Response::Latency { seconds, .. }) => assert!(seconds > 0.0),
            other => panic!("expected Latency, got {other:?}"),
        }

        // begin drain (as SIGTERM would) while the connection is live
        drain.store(true, Ordering::SeqCst);

        // the in-flight connection still gets one full answer...
        match client.call(&api::Request::Profile(profile_spec(0))) {
            Ok(api::Response::Latency { .. }) => {}
            other => panic!("draining server dropped an in-flight request: {other:?}"),
        }
        // ...and is then closed deterministically
        assert!(
            client.call(&api::Request::Stats).is_err(),
            "connection must close after the post-drain response"
        );

        let stats = srv.join().unwrap();
        assert_eq!(stats.connections, 1);
        // with the listener closed and the socket file gone, new
        // connections are refused
        assert!(
            UnixStream::connect(&path).is_err(),
            "drained server must refuse new connections"
        );
    });
}

#[test]
fn admission_control_sheds_over_the_wire_once_the_breaker_trips() {
    let path = socket_path("breaker");
    let mut config = engine_config();
    config.fault_rate = 1.0; // every query fails at the fault layer
    config.breaker = BreakerConfig::tripping_after(2);
    let engine = ServeEngine::new(config).expect("build faulty engine");
    let server =
        wire::Server::bind(None, Some(&path), wire::ServerConfig::default()).expect("bind");

    std::thread::scope(|scope| {
        let srv = scope.spawn(|| server.run(|req| engine.handle(req)).expect("server run"));
        let mut client = connect(&path);

        // two failures reach the stack and trip the breaker...
        for attempt in 0..2 {
            match client.call(&api::Request::Profile(profile_spec(0))) {
                Ok(api::Response::Error(body)) => {
                    assert_eq!(body.kind, api::ErrorKind::Fault, "attempt {attempt}");
                    assert!(body.transient);
                }
                other => panic!("expected an injected fault, got {other:?}"),
            }
        }
        // ...after which admission control sheds without touching it
        match client.call(&api::Request::Profile(profile_spec(0))) {
            Ok(api::Response::Error(body)) => {
                assert_eq!(body.kind, api::ErrorKind::Shed);
                assert!(body.transient, "shed requests are retryable");
                assert!(
                    body.message.contains("admission control open"),
                    "{}",
                    body.message
                );
            }
            other => panic!("expected a shed, got {other:?}"),
        }

        match client.call(&api::Request::Stats).expect("stats call") {
            api::Response::Stats(report) => {
                assert_eq!(report.served, 0, "no request succeeded");
                assert_eq!(report.shed, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        match client.call(&api::Request::Shutdown).expect("shutdown") {
            api::Response::Bye => {}
            other => panic!("expected Bye, got {other:?}"),
        }
        srv.join().unwrap();
    });
}

#[test]
fn a_checked_search_with_no_legal_plan_is_a_bad_request_over_the_wire() {
    let path = socket_path("no-legal-plan");
    let mut config = engine_config();
    // one recorded failure would trip admission
    config.breaker = BreakerConfig::tripping_after(1);
    let engine = ServeEngine::new(config).expect("build engine");
    let server =
        wire::Server::bind(None, Some(&path), wire::ServerConfig::default()).expect("bind");

    std::thread::scope(|scope| {
        let srv = scope.spawn(|| server.run(|req| engine.handle(req)).expect("server run"));
        let mut client = connect(&path);

        // the CLI's paper-size defaults: no split of GPT-3 1.3B over
        // Platform 2 passes static legality
        let search = api::Request::Search(api::SearchSpec {
            model: ModelSpec::gpt3_1p3b(8),
            microbatches: 8,
            imbalance_tolerance: None,
            checked: true,
        });
        match client.call(&search) {
            Ok(api::Response::Error(body)) => {
                assert_eq!(body.kind, api::ErrorKind::BadRequest, "{}", body.message);
                assert!(!body.transient);
                assert!(body.message.contains("no legal plan"), "{}", body.message);
                assert!(body.message.contains("P1401"), "{}", body.message);
            }
            other => panic!("expected a BadRequest, got {other:?}"),
        }
        // the request's problem fed admission no failure: the next
        // request is served, not shed
        match client.call(&api::Request::Profile(profile_spec(0))) {
            Ok(api::Response::Latency { .. }) => {}
            other => panic!("expected Latency after the rejected search, got {other:?}"),
        }
        match client.call(&api::Request::Stats).expect("stats call") {
            api::Response::Stats(report) => assert_eq!(report.shed, 0),
            other => panic!("expected Stats, got {other:?}"),
        }
        match client.call(&api::Request::Shutdown).expect("shutdown") {
            api::Response::Bye => {}
            other => panic!("expected Bye, got {other:?}"),
        }
        srv.join().unwrap();
    });
}
