//! Protocol-v2 version negotiation: both compatibility directions must
//! degrade into clean, typed rejections — never a frame desync.
//!
//! * old client → new server: the first frame is not a `Hello`, so the
//!   server answers with `RSP_ERROR` (a frame type that has existed since
//!   v1, so the old client decodes it) and closes at a frame boundary;
//! * new client → old server: the v1 server answers the unknown `Hello`
//!   request with its error frame, which the client maps onto a typed
//!   [`ClientError::Unsupported`].

use memsync_serve::frame::{read_frame, write_frame};
use memsync_serve::{
    Client, ClientError, FrontendKind, Request, Response, ServeConfig, Server, SubmitOptions,
    PROTOCOL_VERSION,
};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn test_config(frontend: FrontendKind) -> ServeConfig {
    ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        frontend,
        reactor_threads: 1,
        ..ServeConfig::default()
    }
}

/// Every frontend this platform can run: each test that starts a real
/// server runs once per frontend, since both drive the same protocol
/// session and must answer alike.
fn frontends() -> Vec<FrontendKind> {
    let mut kinds = vec![FrontendKind::Threads];
    if cfg!(unix) {
        kinds.push(FrontendKind::Reactor);
    }
    kinds
}

/// Raw-stream helper: one request frame out, one response frame back.
fn raw_roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Option<Response> {
    write_frame(stream, &req.encode()).expect("write");
    read_frame(reader)
        .expect("read")
        .map(|p| Response::decode(&p).expect("decode"))
}

#[test]
fn handshake_settles_version_and_exposes_capabilities() {
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        let client = Client::connect(server.local_addr()).expect("connect");
        let h = client.server();
        assert_eq!(h.version, PROTOCOL_VERSION);
        assert_eq!(h.shards, 2);
        assert_eq!(h.egress, 2);
        assert_eq!(h.routes, 16);
        assert_eq!(
            h.capabilities,
            memsync_serve::backend::capability_bits()
                | memsync_serve::frame::CAP_TRACING
                | memsync_serve::frame::CAP_CONTROL,
            "this build supports all three backends, request tracing, and \
             the live control plane"
        );
        assert!(
            h.capabilities & h.backend.cap_bit() != 0,
            "serving backend is a supported one"
        );
        assert!(client.supports_tracing(), "tracing capability surfaced");
        assert!(client.supports_control(), "control capability surfaced");
    }
}

#[test]
fn span_tagged_submit_against_a_server_without_the_capability_is_refused_locally() {
    // Simulates a v2 server one build older than this client: same
    // protocol version, but no CAP_TRACING in its hello. A span-tagged
    // submit must fail client-side with a typed Unsupported — nothing is
    // sent, so the old server never sees a flag byte it cannot decode.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut served = 0usize;
        while let Some(payload) = read_frame(&mut reader).expect("read") {
            let rsp = match Request::decode(&payload).expect("decode") {
                Request::Hello { .. } => {
                    Response::Hello(memsync_serve::ServerHello {
                        version: PROTOCOL_VERSION,
                        // Backends only — no CAP_TRACING.
                        capabilities: memsync_serve::backend::capability_bits(),
                        backend: memsync_serve::BackendKind::Sim,
                        shards: 2,
                        egress: 2,
                        routes: 16,
                    })
                }
                other => panic!("nothing but hello should arrive, got {other:?}"),
            };
            write_frame(&mut stream, &rsp.encode()).expect("write");
            served += 1;
        }
        served
    });

    let mut client = Client::connect(addr).expect("hello succeeds without tracing");
    assert!(!client.supports_tracing());
    let w = memsync_netapp::Workload::generate(2, 4, 16);
    let err = client
        .submit(&w.packets, SubmitOptions::new().span(42))
        .expect_err("span-tagged submit must be refused locally");
    match err {
        ClientError::Unsupported(msg) => {
            assert!(msg.contains("tracing"), "names the capability: {msg}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    drop(client);
    assert_eq!(
        old_server.join().unwrap(),
        1,
        "only the hello reached the wire"
    );
}

#[test]
fn submit_before_hello_is_refused_with_a_v1_decodable_error() {
    // Simulates a v1 client: no handshake, straight to business.
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let w = memsync_netapp::Workload::generate(1, 4, 16);
        let rsp = raw_roundtrip(
            &mut stream,
            &mut reader,
            &Request::Submit {
                packets: w.packets,
                options: SubmitOptions::new(),
            },
        )
        .expect("a response frame, not a slammed connection");
        match rsp {
            // RSP_ERROR is a v1 frame type: the old client can decode this.
            Response::Error(msg) => {
                assert!(msg.contains("hello"), "error names the fix: {msg}");
                assert!(msg.contains("submit"), "error names the offense: {msg}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // The server closes cleanly at a frame boundary — the next read is a
        // clean EOF (Ok(None)), not a desynced byte stream or a reset.
        assert!(
            read_frame(&mut reader).expect("clean close").is_none(),
            "connection closed at a frame boundary after the rejection"
        );
    }
}

#[test]
fn stats_and_kill_before_hello_are_also_refused() {
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        for req in [Request::Stats, Request::Kill(0), Request::Drain] {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let rsp = raw_roundtrip(&mut stream, &mut reader, &req).expect("response");
            assert!(
                matches!(rsp, Response::Error(_)),
                "{req:?} before hello must be refused"
            );
        }
    }
}

#[test]
fn version_range_outside_the_server_is_rejected_with_both_sides_named() {
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        for (min, max) in [(0, 1), (4, 9), (0, 0)] {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let rsp = raw_roundtrip(
                &mut stream,
                &mut reader,
                &Request::Hello {
                    min_version: min,
                    max_version: max,
                },
            )
            .expect("response");
            match rsp {
                Response::Error(msg) => {
                    assert!(
                        msg.contains(&format!("{min}..={max}")),
                        "names the client range: {msg}"
                    );
                    assert!(
                        msg.contains(&PROTOCOL_VERSION.to_string()),
                        "names the server version: {msg}"
                    );
                }
                other => panic!("expected Error for {min}..={max}, got {other:?}"),
            }
            assert!(
                read_frame(&mut reader).expect("clean close").is_none(),
                "closed at a frame boundary"
            );
        }
    }
}

#[test]
fn repeated_hello_is_idempotent() {
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let hello = Request::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        };
        let first = raw_roundtrip(&mut stream, &mut reader, &hello).expect("first hello");
        let second = raw_roundtrip(&mut stream, &mut reader, &hello).expect("second hello");
        assert_eq!(first, second, "hello re-states the same capability block");
        // And the connection still serves.
        let rsp = raw_roundtrip(&mut stream, &mut reader, &Request::Stats).expect("stats");
        assert!(matches!(rsp, Response::Stats(_)));
    }
}

#[test]
fn v2_client_settles_v2_and_control_frames_are_refused_on_that_connection() {
    // Backward compat: a v2 client (max_version 2) against this v3
    // server settles v2, keeps full data-plane service, and the server
    // refuses v3 control frames on the connection with a typed error —
    // never a desync, even though the capability block advertises
    // CAP_CONTROL server-wide.
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let rsp = raw_roundtrip(
            &mut stream,
            &mut reader,
            &Request::Hello {
                min_version: 2,
                max_version: 2,
            },
        )
        .expect("hello response");
        match rsp {
            Response::Hello(h) => {
                assert_eq!(h.version, 2, "settles the client's maximum, not ours");
                assert!(
                    h.capabilities & memsync_serve::frame::CAP_CONTROL != 0,
                    "capability block still advertises the server-wide feature"
                );
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        // Data plane still works on the settled-v2 connection.
        let w = memsync_netapp::Workload::generate(1, 4, 16);
        let rsp = raw_roundtrip(
            &mut stream,
            &mut reader,
            &Request::Submit {
                packets: w.packets,
                options: SubmitOptions::new(),
            },
        )
        .expect("submit response");
        assert!(matches!(rsp, Response::Batch { .. }), "got {rsp:?}");
        // Control frames do not.
        let rsp = raw_roundtrip(
            &mut stream,
            &mut reader,
            &Request::RouteAdd(vec![memsync_netapp::fib::Route {
                prefix: 0x0a00_0000,
                len: 8,
                next_hop: 9,
            }]),
        )
        .expect("control response");
        match rsp {
            Response::Error(msg) => {
                assert!(msg.contains("v3"), "names the required version: {msg}");
                assert!(msg.contains("v2"), "names the settled version: {msg}");
            }
            other => panic!("expected Error for control on v2, got {other:?}"),
        }
        // The refusal is not a close: the connection keeps serving.
        let rsp = raw_roundtrip(&mut stream, &mut reader, &Request::Stats).expect("stats");
        assert!(matches!(rsp, Response::Stats(_)));
    }
}

#[test]
fn route_mutations_round_trip_on_a_settled_v3_connection() {
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert!(client.supports_control());
        let up = client
            .route_add(&[memsync_netapp::fib::Route {
                prefix: 0x0a00_0000,
                len: 8,
                next_hop: 400,
            }])
            .expect("route add");
        assert_eq!(up.generation, 2, "first mutation publishes generation 2");
        // The synthetic boot table is a default route plus 16 entries.
        assert_eq!(up.routes, 18, "17 boot routes + 1");
        assert_eq!(up.applied, 1);
        let up = client
            .route_withdraw(&[(0x0a00_0000, 8), (0x0b00_0000, 8)])
            .expect("route withdraw");
        assert_eq!(up.routes, 17, "back to the boot table size");
        assert_eq!(up.applied, 1, "absent prefix does not count");
        let up = client.swap_default(77).expect("swap default");
        assert_eq!(up.applied, 1);
        // The stats fib section audits the swaps and the retirement barrier.
        let snap = client.stats().expect("stats");
        let fib = snap.fib.expect("fib section present");
        assert_eq!(fib.generation, 4, "three mutations after boot");
        assert_eq!(fib.swaps, 3);
        assert_eq!(
            fib.retired,
            fib.generation - 1,
            "every pre-swap generation provably drained"
        );
        assert_eq!(fib.swap_latency_us.expect("measured").count, 3);
    }
}

#[test]
fn new_client_against_an_old_server_maps_to_a_typed_unsupported_error() {
    // Simulates a v1 server: accepts one connection, answers every frame
    // (including the Hello it has never heard of) with its v1 error.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        if read_frame(&mut reader).expect("read").is_some() {
            // v1 decode path: unknown request type 0x06.
            write_frame(
                &mut stream,
                &Response::Error("malformed frame: unknown request 0x06".into()).encode(),
            )
            .expect("write error");
        }
    });

    match Client::connect(addr) {
        Err(ClientError::Unsupported(msg)) => {
            assert!(
                msg.contains("unknown request"),
                "carries the v1 error: {msg}"
            );
        }
        Ok(_) => panic!("connect must not succeed against a v1 server"),
        Err(other) => panic!("expected Unsupported, got {other}"),
    }
    old_server.join().unwrap();
}

#[test]
fn client_side_kill_validation_uses_the_negotiated_shard_count() {
    for frontend in frontends() {
        let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(client.server().shards, 2);
        // In range: accepted by the server.
        client.kill_shard(1).expect("shard 1 exists");
        // Out of range: refused locally, typed, nothing sent.
        match client.kill_shard(2) {
            Err(ClientError::ShardOutOfRange {
                shard: 2,
                shards: 2,
            }) => {}
            other => panic!("expected ShardOutOfRange, got {other:?}"),
        }
    }
}

/// Runs one raw conversation per entry of `conns` against a fresh server
/// on `frontend` and returns every response payload byte for byte
/// (`None` where the server closed the connection instead).
fn raw_responses(frontend: FrontendKind, conns: &[Vec<Request>]) -> Vec<Vec<Option<Vec<u8>>>> {
    let server = Server::start("127.0.0.1:0", test_config(frontend)).expect("bind");
    conns
        .iter()
        .map(|script| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            script
                .iter()
                .map(|req| {
                    // A write or read failure is the server having closed.
                    write_frame(&mut stream, &req.encode()).ok()?;
                    read_frame(&mut reader).ok().flatten()
                })
                .collect()
        })
        .collect()
}

fn decoded(payload: &Option<Vec<u8>>) -> Response {
    Response::decode(payload.as_ref().expect("a response, not a close")).expect("decode")
}

#[test]
fn every_frontend_answers_the_protocol_byte_for_byte_alike() {
    let hello_v3 = Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    };
    let w = memsync_netapp::Workload::generate(3, 12, 16);
    let submit = Request::Submit {
        packets: w.packets.clone(),
        options: SubmitOptions::new().verify(true),
    };
    let route = memsync_netapp::fib::Route {
        prefix: 0x0a00_0000,
        len: 8,
        next_hop: 9,
    };
    let conns = [
        // Refused before the handshake, and closed.
        vec![Request::Stats, Request::Stats],
        vec![
            Request::Hello {
                min_version: 4,
                max_version: 9,
            },
            Request::Stats,
        ],
        // Settled v2: data plane served, control refused.
        vec![
            Request::Hello {
                min_version: 2,
                max_version: 2,
            },
            submit.clone(),
            Request::SwapDefault { next_hop: 3 },
        ],
        // Settled v3: every deterministic answer, then drain and shutdown.
        vec![
            hello_v3.clone(),
            hello_v3,
            submit.clone(),
            Request::Submit {
                packets: Vec::new(),
                options: SubmitOptions::new(),
            },
            Request::StatsStream { interval_ms: 0 },
            // Out of range; the client refuses this locally, so only a raw
            // frame reaches the server's check.
            Request::Kill(2),
            Request::RouteAdd(vec![route]),
            Request::RouteWithdraw(vec![(0x0a00_0000, 8)]),
            Request::SwapDefault { next_hop: 3 },
            Request::Drain,
            Request::RouteAdd(vec![route]),
            submit,
            Request::Shutdown,
        ],
    ];
    let mut kinds = frontends().into_iter();
    let first = kinds.next().expect("threads frontend");
    let rsps = raw_responses(first, &conns);
    for frontend in kinds {
        assert_eq!(
            raw_responses(frontend, &conns),
            rsps,
            "{frontend} frontend answers differently from {first}"
        );
    }
    for refused in &rsps[..2] {
        assert!(refused[0].is_some(), "the refusal carries a frame");
        assert!(refused[1].is_none(), "then the connection is closed");
    }
    let main = &rsps[3];
    assert_eq!(main.len(), 13);
    assert!(main.iter().all(Option::is_some), "nothing closed early");
    assert!(matches!(
        decoded(&main[2]),
        Response::Batch { mismatches: 0, .. }
    ));
    assert_eq!(decoded(&main[5]), Response::Error("no shard 2".into()));
    assert_eq!(decoded(&main[9]), Response::Drained);
    assert_eq!(
        decoded(&main[10]),
        Response::Error("draining: control plane refused".into())
    );
    assert_eq!(
        decoded(&main[11]),
        Response::Error("draining: new submits refused".into())
    );
    assert_eq!(decoded(&main[12]), Response::Ok);
}
