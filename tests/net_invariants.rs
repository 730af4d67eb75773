//! Loopback invariants of the framed TCP front end: coalescing across real
//! connections, malformed-frame resilience, shed-load envelopes, and front-end
//! counters that account for every reply a client has read.
//!
//! These tests exercise the full path the repository benchmark in
//! `perfbench/` measures: client socket → frame codec → admission queue →
//! worker pool → `SolveService` (cache + singleflight) → response frame.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use quhe::prelude::*;
use quhe::serve::wire::{self, read_frame};

/// A fast solver configuration: single start, tight budgets, serial.
fn quick_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 2,
        max_stage3_iterations: 8,
        tolerance: 1e-3,
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

fn connect(server: &TcpServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connecting to the loopback");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Sends one request body as a frame and reads one reply frame.
fn roundtrip(stream: &mut TcpStream, body: &str) -> WireReply {
    wire::write_frame(stream, body.as_bytes()).expect("writing the request frame");
    let frame = read_frame(stream)
        .expect("reading the reply frame")
        .expect("the server must answer before closing");
    WireReply::from_json(std::str::from_utf8(&frame).unwrap()).expect("parsing the reply")
}

#[test]
fn concurrent_identical_requests_over_tcp_coalesce_to_one_solve() {
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(4)
            .build(),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let clients = 4;

    // One connection per client, all requests written before any reply is
    // read, so the requests are genuinely in flight together.
    let request = SolveRequest::catalog("paper_default", 404);
    let mut streams: Vec<TcpStream> = (0..clients).map(|_| connect(&server)).collect();
    for (i, stream) in streams.iter_mut().enumerate() {
        let body = request.clone().with_id(&format!("c{i}")).to_json();
        wire::write_frame(stream, body.as_bytes()).unwrap();
    }
    let mut responses = Vec::new();
    for stream in &mut streams {
        let frame = read_frame(stream).unwrap().expect("a reply per request");
        match WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap() {
            WireReply::Ok(response) => responses.push(response),
            WireReply::Err { kind, message, .. } => {
                panic!("request failed on the wire: {kind}: {message}")
            }
        }
    }

    // Every reply has been read, so every frame is counted as answered: a
    // response is counted before its bytes can reach the client.
    let net = server.stats();
    assert_eq!(net.frames, clients, "net: {net:?}");
    assert_eq!(net.frames, net.responses, "net: {net:?}");

    // However the scheduler interleaved the workers, the world was solved
    // exactly once; everyone got that solve bit-identically.
    let stats = service.stats();
    assert_eq!(stats.cold_solves, 1, "stats: {stats:?}");
    assert_eq!(stats.total(), clients, "stats: {stats:?}");
    assert_eq!(stats.exact_hits + stats.coalesced, clients - 1);
    let reference = &responses[0].report;
    for response in &responses {
        assert_eq!(response.report, *reference);
        assert_eq!(
            response.report.objective.to_bits(),
            reference.objective.to_bits()
        );
    }

    // The flight is over: the next identical request is a plain cache hit.
    let mut stream = connect(&server);
    let WireReply::Ok(after) = roundtrip(&mut stream, &request.clone().with_id("late").to_json())
    else {
        panic!("the warmed request must succeed");
    };
    assert_eq!(after.cache, CacheOutcome::Hit);
    assert_eq!(after.id.as_deref(), Some("late"));
    assert_eq!(after.report, *reference);
    let net = server.stats();
    assert_eq!(net.frames, clients + 1, "net: {net:?}");
    assert_eq!(net.frames, net.responses, "net: {net:?}");

    server.shutdown();
}

#[test]
fn malformed_frames_get_error_envelopes_and_the_connection_survives() {
    let service = Arc::new(ServiceConfig::new(quick_config()).build());
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = connect(&server);

    // 1. Garbage JSON: an invalid_request envelope, connection stays up.
    let WireReply::Err { kind, .. } = roundtrip(&mut stream, "this is not json") else {
        panic!("garbage must be rejected");
    };
    assert_eq!(kind, "invalid_request");

    // 2. A structurally valid frame with an unsupported protocol marker:
    //    rejected, id echoed, connection stays up.
    let reply = roundtrip(
        &mut stream,
        "{\"proto\": \"quhe-serve/v99\", \"id\": \"x1\"}",
    );
    let WireReply::Err { id, kind, message } = reply else {
        panic!("unsupported protocols must be rejected");
    };
    assert_eq!(id.as_deref(), Some("x1"));
    assert_eq!(kind, "invalid_request");
    assert!(message.contains("unsupported protocol"), "{message}");

    // 3. An oversized frame declaration: rejected once, the stream resyncs.
    let huge = (2 * wire::MAX_FRAME_BYTES) as u32;
    stream.write_all(&huge.to_be_bytes()).unwrap();
    let oversized_payload = vec![b'x'; 2 * wire::MAX_FRAME_BYTES];
    stream.write_all(&oversized_payload).unwrap();
    let frame = read_frame(&mut stream).unwrap().expect("a rejection reply");
    let WireReply::Err { kind, message, .. } =
        WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap()
    else {
        panic!("oversized frames must be rejected");
    };
    assert_eq!(kind, "invalid_request");
    assert!(message.contains("exceeds the limit"), "{message}");

    // 4. The same connection still serves a real request after all three.
    let request = SolveRequest::catalog("paper_default", 11).with_id("ok-after");
    let WireReply::Ok(response) = roundtrip(&mut stream, &request.to_json()) else {
        panic!("the connection must survive malformed frames");
    };
    assert_eq!(response.id.as_deref(), Some("ok-after"));

    let stats = server.stats();
    assert_eq!(stats.rejected_frames, 3, "stats: {stats:?}");
    assert_eq!(stats.connections, 1);
    server.shutdown();
}

#[test]
fn a_stream_dying_mid_frame_is_answered_with_a_truncation_envelope() {
    let service = Arc::new(ServiceConfig::new(quick_config()).build());
    let server = TcpServer::bind(service, "127.0.0.1:0").unwrap();
    let mut stream = connect(&server);

    // Declare a 100-byte payload, send 3 bytes, end the write side.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"abc").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let frame = read_frame(&mut stream)
        .unwrap()
        .expect("a best-effort truncation envelope before close");
    let WireReply::Err { kind, message, .. } =
        WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap()
    else {
        panic!("truncation must be an error envelope");
    };
    assert_eq!(kind, "invalid_request");
    assert!(message.contains("mid-frame"), "{message}");
    // The server closed its side after the envelope.
    assert_eq!(read_frame(&mut stream).unwrap(), None);
    server.shutdown();
}

#[test]
fn a_full_admission_queue_sheds_with_the_overloaded_envelope() {
    // One worker, a queue of one: a pipelined burst must overrun admission,
    // because the reader drains frames far faster than solves complete.
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(1)
            .with_queue_bound(1)
            .build(),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = connect(&server);

    let burst = 16;
    for i in 0..burst {
        // Distinct seeds: every admitted request is a genuine solve, so the
        // single worker stays busy while the burst arrives.
        let body = SolveRequest::catalog("paper_default", 1000 + i as u64)
            .with_id(&format!("b{i}"))
            .to_json();
        wire::write_frame(&mut stream, body.as_bytes()).unwrap();
    }

    let (mut served, mut shed) = (0usize, 0usize);
    for _ in 0..burst {
        let frame = read_frame(&mut stream).unwrap().expect("a reply per frame");
        match WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap() {
            WireReply::Ok(_) => served += 1,
            WireReply::Err { id, kind, message } => {
                // Every shed is the structured overloaded envelope with the
                // request id echoed, never a dropped frame or a closed
                // connection.
                assert_eq!(kind, "overloaded", "{message}");
                assert!(id.is_some());
                assert!(message.contains("back off"), "{message}");
                shed += 1;
            }
        }
    }
    assert_eq!(served + shed, burst);
    assert!(shed > 0, "a 16-deep burst into a 1-slot queue must shed");
    assert!(served > 0, "admitted requests must still be answered");
    // Served and shed replies alike were counted before the client read
    // them.
    let stats = server.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.frames, burst, "stats: {stats:?}");
    assert_eq!(stats.frames, stats.responses, "stats: {stats:?}");
    assert_eq!(service.stats().total(), served);
    server.shutdown();
}

#[test]
fn shutdown_answers_admitted_requests_before_joining() {
    let service = Arc::new(ServiceConfig::new(quick_config()).build());
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = connect(&server);
    let body = SolveRequest::catalog("paper_default", 77)
        .with_id("last")
        .to_json();
    wire::write_frame(&mut stream, body.as_bytes()).unwrap();
    // Give the reader a moment to admit the request, then shut down; the
    // admitted request must still be answered during the drain.
    let frame = read_frame(&mut stream).unwrap().expect("an admitted reply");
    server.shutdown();
    let WireReply::Ok(response) =
        WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap()
    else {
        panic!("the admitted request must be served");
    };
    assert_eq!(response.id.as_deref(), Some("last"));
}
