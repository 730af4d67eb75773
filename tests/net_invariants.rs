//! Loopback invariants of the framed TCP front end: coalescing across real
//! connections, malformed-frame resilience, shed-load envelopes, workers that
//! survive a panicking solve or a client that stops reading, hits answered
//! by the connection's reader while every worker is busy, repeated requests
//! that carry the first response's report bytes (also while key lookups
//! race stores and evictions), and front-end counters that account for
//! every reply a client has read.
//!
//! These tests exercise the full path the repository benchmark in
//! `perfbench/` measures: client socket → frame codec → request-key lookup
//! on the reader → admission queue → worker pool → `SolveService` (cache +
//! singleflight) → response frame.

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use quhe::prelude::*;
use quhe::serve::net::WRITE_TIMEOUT;
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

/// The report bytes of a v2 success frame, from `"report": ` to the end:
/// what perfbench's client compares across the responses for one key.
fn report_bytes(frame: &[u8]) -> &[u8] {
    let marker = b"\"report\": ";
    let at = frame
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("a success envelope carries a report");
    &frame[at..]
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
    // One worker: the request served last proves the pool survived the
    // solve-time rejection of frame 4.
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(1)
            .build(),
    );
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

    // 4. A well-formed request whose warm start has the wrong length for
    //    the 6-client world: the solver rejects it with a structured error
    //    instead of indexing past the start's vectors.
    let one = vec![1.0];
    let short_start = DecisionVariables {
        phi: one.clone(),
        w: one.clone(),
        lambda: vec![1 << 15],
        power: one.clone(),
        bandwidth: one.clone(),
        client_frequency: one.clone(),
        server_frequency: one,
        delay_bound: 1.0,
    };
    let request = SolveRequest::catalog("paper_default", 11)
        .with_id("short-start")
        .with_spec(SolveSpec::warm_from(short_start));
    let WireReply::Err { id, kind, message } = roundtrip(&mut stream, &request.to_json()) else {
        panic!("a wrong-length warm start must be rejected");
    };
    assert_eq!(id.as_deref(), Some("short-start"));
    assert_eq!(kind, "dimension_mismatch", "{message}");

    // 5. The same connection, and the same worker, still serve a real
    //    request after all four.
    let request = SolveRequest::catalog("paper_default", 11).with_id("ok-after");
    let WireReply::Ok(response) = roundtrip(&mut stream, &request.to_json()) else {
        panic!("the connection must survive malformed frames");
    };
    assert_eq!(response.id.as_deref(), Some("ok-after"));

    // Frame 4 parsed fine; only the solver refused it.
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

/// A registered solver whose every solve panics, standing in for a solver
/// bug.
struct PanickingSolver(QuheConfig);

impl Solver for PanickingSolver {
    fn name(&self) -> &str {
        "boom"
    }

    fn description(&self) -> &str {
        "panics on every solve"
    }

    fn config(&self) -> &QuheConfig {
        &self.0
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self(config))
    }

    fn solve(&self, _: &SystemScenario, _: &SolveSpec) -> QuheResult<SolveReport> {
        panic!("injected solver panic")
    }
}

#[test]
fn a_panicking_solve_is_answered_and_its_worker_survives() {
    // One worker: the request served after the panic proves the pool
    // survived it.
    let mut registry = SolverRegistry::builtin_with(quick_config());
    registry
        .register(Box::new(PanickingSolver(quick_config())))
        .unwrap();
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(1)
            .build_with(registry, ScenarioCatalog::builtin()),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = connect(&server);
    // A lost reply shows up as a read timeout; fail fast on it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let boom = SolveRequest::catalog("paper_default", 1)
        .with_solver("boom")
        .with_id("boom");
    let WireReply::Err { id, kind, message } = roundtrip(&mut stream, &boom.to_json()) else {
        panic!("a panicking solve cannot succeed");
    };
    assert_eq!(id.as_deref(), Some("boom"));
    assert_eq!(kind, "overloaded", "{message}");
    assert!(message.contains("retry"), "{message}");

    let after = SolveRequest::catalog("paper_default", 1).with_id("after");
    let WireReply::Ok(after) = roundtrip(&mut stream, &after.to_json()) else {
        panic!("the worker must survive the panic");
    };
    assert_eq!(after.id.as_deref(), Some("after"));
    let net = server.stats();
    assert_eq!(net.frames, 2, "net: {net:?}");
    assert_eq!(net.frames, net.responses, "net: {net:?}");
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

#[test]
fn a_repeated_request_carries_the_first_responses_report_bytes() {
    let service = Arc::new(ServiceConfig::new(quick_config()).build());
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = connect(&server);
    // A catalogue key is served cold, then its drift step warm (or by the
    // fallback); each is repeated twice as an exact hit.
    for request in [
        SolveRequest::catalog("far_edge", 3),
        SolveRequest::drifted("far_edge", 3, 1),
    ] {
        let frames: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                let body = request.clone().with_id(&format!("r{i}")).to_json();
                wire::write_frame(&mut stream, body.as_bytes()).unwrap();
                read_frame(&mut stream)
                    .unwrap()
                    .expect("a reply per request")
            })
            .collect();
        let tags: Vec<CacheOutcome> = frames
            .iter()
            .map(
                |frame| match WireReply::from_json(std::str::from_utf8(frame).unwrap()).unwrap() {
                    WireReply::Ok(response) => response.cache,
                    WireReply::Err { kind, message, .. } => panic!("{kind}: {message}"),
                },
            )
            .collect();
        assert_ne!(tags[0], CacheOutcome::Hit, "{}", request.to_json());
        assert_eq!(tags[1..], [CacheOutcome::Hit; 2], "{}", request.to_json());
        for hit in &frames[1..] {
            assert!(
                report_bytes(hit) == report_bytes(&frames[0]),
                "{}: a hit's report bytes differ from the first response's",
                request.to_json()
            );
        }
    }
    server.shutdown();
}

/// Writes `request` to `stalled` again and again, each copy with the id
/// `make_id(i)` for a running count `i`, 256 frames per write, until the
/// client's writes stall because the server stopped reading: the moment of
/// the stall.
fn pipeline_until_stalled(
    stalled: &mut TcpStream,
    request: impl Fn(usize) -> SolveRequest,
) -> Instant {
    stalled
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let fill_deadline = Instant::now() + Duration::from_secs(60);
    let mut sent = 0usize;
    loop {
        let mut batch = Vec::new();
        for i in sent..sent + 256 {
            wire::write_frame(&mut batch, request(i).to_json().as_bytes()).unwrap();
        }
        sent += 256;
        match stalled.write_all(&batch) {
            Ok(()) => assert!(
                Instant::now() < fill_deadline,
                "the stalled client's writes never stalled"
            ),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Instant::now()
            }
            Err(e) => panic!("writing to the server: {e}"),
        }
    }
}

/// Reads `stalled` to its end once the server has shut it down, returning
/// the success replies it delivered. The server closes a socket that still
/// holds unread requests, which the kernel signals with a reset rather than
/// a FIN, and it may have shut the socket down in the middle of a frame, so
/// a reset and a truncated last frame count as the end too; a read that
/// times out means the connection was left open.
fn drain_to_end(stalled: TcpStream) -> Vec<SolveResponse> {
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stalled);
    let mut served = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => {
                if let Ok(WireReply::Ok(response)) =
                    WireReply::from_json(std::str::from_utf8(&frame).unwrap())
                {
                    served.push(response);
                }
            }
            Ok(None) => return served,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::InvalidData
                ) =>
            {
                return served
            }
            Err(e) => panic!("the stalled connection must reach its end: {e}"),
        }
    }
}

#[test]
fn a_client_that_stops_reading_holds_only_its_own_reader() {
    // Runs about WRITE_TIMEOUT (2 s) plus the margin, the time to fill the
    // loopback socket buffers and one cold dense_cell solve.
    let margin = Duration::from_secs(1);
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(1)
            .build(),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    // Cache a dense_cell key: every later request for it is an exact hit
    // whose reply is about 12 KB.
    let request = SolveRequest::catalog("dense_cell", 1);
    let mut probe = connect(&server);
    let WireReply::Ok(_) = roundtrip(&mut probe, &request.to_json()) else {
        panic!("the dense_cell solve must succeed");
    };

    // The stalled client pipelines hits and never reads, until its own
    // writes stall: its reader, which answers hits itself, is then blocked
    // writing replies nobody reads. (It is declared after the server, so
    // that if an assertion fails it closes first and lets the server shut
    // down.)
    let mut stalled = connect(&server);
    let stalled_at =
        pipeline_until_stalled(&mut stalled, |i| request.clone().with_id(&format!("s{i}")));

    // Another connection's hit is answered by its own reader at once: it
    // needs neither the stalled reader nor the worker.
    let within = Duration::from_secs(1);
    let mut other = connect(&server);
    other.set_read_timeout(Some(within)).unwrap();
    let WireReply::Ok(answered) =
        roundtrip(&mut other, &request.clone().with_id("other").to_json())
    else {
        panic!("the other connection's hit must be served");
    };
    let waited = stalled_at.elapsed();
    assert!(
        waited < within,
        "answered {waited:?} after the stall, over {within:?}"
    );
    assert_eq!(answered.cache, CacheOutcome::Hit);
    assert_eq!(answered.id.as_deref(), Some("other"));

    // The stalled reader's write fails within WRITE_TIMEOUT and shuts the
    // connection down. Reading it before then would let the write resume,
    // and the reader would answer the whole backlog; after it, reading
    // drains the replies already delivered and reaches the end.
    std::thread::sleep((WRITE_TIMEOUT + margin).saturating_sub(stalled_at.elapsed()));
    let delivered = drain_to_end(stalled);
    assert!(
        delivered.iter().all(|r| r.cache == CacheOutcome::Hit),
        "the stalled connection sent only hits"
    );
    assert_eq!(service.stats().cold_solves, 1);
    server.shutdown();
}

/// A registered solver that answers at once with a report of about 13 KB,
/// so that a few replies fill a client's socket buffers while the first
/// ones arrive whole.
struct BulkySolver {
    config: QuheConfig,
    report: SolveReport,
}

impl BulkySolver {
    fn new(config: QuheConfig) -> Self {
        let scenario = SystemScenario::paper_default(1);
        let mut report = SolverRegistry::builtin_with(config)
            .resolve("aa")
            .unwrap()
            .solve(&scenario, &SolveSpec::cold())
            .unwrap();
        report.variables.phi = vec![0.123_456_789; 1_000];
        Self { config, report }
    }
}

impl Solver for BulkySolver {
    fn name(&self) -> &str {
        "bulky"
    }

    fn description(&self) -> &str {
        "answers at once with a report of about 13 KB"
    }

    fn config(&self) -> &QuheConfig {
        &self.config
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self {
            config,
            report: self.report.clone(),
        })
    }

    fn solve(&self, _: &SystemScenario, _: &SolveSpec) -> QuheResult<SolveReport> {
        Ok(self.report.clone())
    }
}

#[test]
fn a_client_that_stops_reading_cannot_hold_the_only_worker() {
    // Runs about WRITE_TIMEOUT (2 s) plus the time to fill the loopback
    // socket buffers and one cold solve.
    let margin = Duration::from_secs(3);
    let mut registry = SolverRegistry::builtin_with(quick_config());
    registry
        .register(Box::new(BulkySolver::new(quick_config())))
        .unwrap();
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(1)
            .with_queue_bound(4)
            .with_cache_capacity(4)
            .build_with(registry, ScenarioCatalog::builtin()),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();

    // The stalled client pipelines misses at distinct seeds and never
    // reads, until its own writes stall: the only worker is then blocked
    // writing bulky replies nobody reads, and the connection's reader waits
    // on the writer the worker holds. (It is declared after the server, so
    // that if an assertion fails it closes first and lets the server shut
    // down.)
    let mut stalled = connect(&server);
    let stalled_at = pipeline_until_stalled(&mut stalled, |i| {
        SolveRequest::catalog("paper_default", i as u64)
            .with_solver("bulky")
            .with_id(&format!("s{i}"))
    });

    // Another connection's miss is solved within the write timeout plus the
    // margin, retrying while the stalled connection's requests fill the
    // queue.
    let deadline = WRITE_TIMEOUT + margin;
    let mut other = connect(&server);
    other.set_read_timeout(Some(deadline)).unwrap();
    let body = SolveRequest::catalog("far_edge", 1)
        .with_id("other")
        .to_json();
    let answered = loop {
        match roundtrip(&mut other, &body) {
            WireReply::Ok(response) => break response,
            WireReply::Err { kind, message, .. } => {
                assert_eq!(kind, "overloaded", "{message}");
                assert!(
                    stalled_at.elapsed() < deadline,
                    "still shed {:?} after the stall: {message}",
                    stalled_at.elapsed()
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let waited = stalled_at.elapsed();
    assert!(
        waited < deadline,
        "answered {waited:?} after the stall, over {deadline:?}"
    );
    assert_eq!(answered.cache, CacheOutcome::Cold);
    assert_eq!(answered.id.as_deref(), Some("other"));

    // The server shut the stalled connection down. The replies it did
    // deliver are the worker's: bulky solves, not hits.
    let delivered = drain_to_end(stalled);
    assert!(!delivered.is_empty(), "the worker delivered no reply");
    assert!(
        delivered
            .iter()
            .all(|r| r.cache == CacheOutcome::Cold && r.solver == "bulky"),
        "the stalled replies came from the worker"
    );
    server.shutdown();
}

/// A `quhe` solver registered as `gated` whose solves announce themselves
/// and then wait for a release.
struct GatedSolver {
    inner: QuheSolver,
    entered: mpsc::Sender<()>,
    release: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl Solver for GatedSolver {
    fn name(&self) -> &str {
        "gated"
    }

    fn description(&self) -> &str {
        "quhe, held at a gate until released"
    }

    fn config(&self) -> &QuheConfig {
        self.inner.config()
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self {
            inner: QuheSolver::new(config),
            entered: self.entered.clone(),
            release: Arc::clone(&self.release),
        })
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        self.entered.send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        self.inner.solve(scenario, spec)
    }
}

#[test]
fn a_hit_is_answered_while_the_only_worker_is_busy() {
    let (entered, entered_rx) = mpsc::channel();
    let (release_tx, release) = mpsc::channel();
    let mut registry = SolverRegistry::builtin_with(quick_config());
    registry
        .register(Box::new(GatedSolver {
            inner: QuheSolver::new(quick_config()),
            entered,
            release: Arc::new(Mutex::new(release)),
        }))
        .unwrap();
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(1)
            .build_with(registry, ScenarioCatalog::builtin()),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    // Declared after the server, so that a failed assertion drops the gate
    // first: the held solve then fails, and the server can shut down.
    let release_tx = release_tx;

    let cached = SolveRequest::catalog("paper_default", 5);
    let mut b = connect(&server);
    let WireReply::Ok(first) = roundtrip(&mut b, &cached.clone().with_id("first").to_json()) else {
        panic!("the first request must be solved");
    };

    // Connection A's miss holds the only worker at the gate.
    let mut a = connect(&server);
    let held = SolveRequest::catalog("paper_default", 6)
        .with_solver("gated")
        .with_id("held");
    wire::write_frame(&mut a, held.to_json().as_bytes()).unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the held solve reaches the gate");

    // Connection B's hit is answered while A's solve is still held.
    let within = Duration::from_secs(1);
    b.set_read_timeout(Some(within)).unwrap();
    let asked = Instant::now();
    let WireReply::Ok(hit) = roundtrip(&mut b, &cached.clone().with_id("hit").to_json()) else {
        panic!("the hit must be served");
    };
    assert!(asked.elapsed() < within, "{:?}", asked.elapsed());
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(hit.id.as_deref(), Some("hit"));
    assert_eq!(hit.report, first.report);
    assert_eq!(server.stats().queue_depth, 0);

    // Released, A's solve is answered.
    release_tx.send(()).unwrap();
    let frame = read_frame(&mut a)
        .unwrap()
        .expect("the held request's reply");
    let WireReply::Ok(answered) =
        WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap()
    else {
        panic!("the held solve must succeed");
    };
    assert_eq!(answered.id.as_deref(), Some("held"));
    assert_eq!(answered.cache, CacheOutcome::Cold);
    let net = server.stats();
    assert_eq!(net.frames, 3, "net: {net:?}");
    assert_eq!(net.frames, net.responses, "net: {net:?}");
    server.shutdown();
}

/// A registered `aa` solver whose reports carry no wall time, so that every
/// solve of a scenario renders the same bytes.
struct TimelessSolver(Box<dyn Solver>);

impl Solver for TimelessSolver {
    fn name(&self) -> &str {
        "timeless"
    }

    fn description(&self) -> &str {
        "aa with runtime_s zeroed"
    }

    fn config(&self) -> &QuheConfig {
        self.0.config()
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self(self.0.with_config(config)))
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        let mut report = self.0.solve(scenario, spec)?;
        report.runtime_s = 0.0;
        if let Some(stage) = &mut report.stage1 {
            stage.runtime_s = 0.0;
        }
        if let Some(stage) = &mut report.stage2 {
            stage.runtime_s = 0.0;
        }
        if let Some(stage) = &mut report.stage3 {
            stage.runtime_s = 0.0;
        }
        Ok(report)
    }
}

#[test]
fn key_lookups_racing_stores_and_evictions_serve_each_keys_own_entry() {
    let mut registry = SolverRegistry::builtin_with(quick_config());
    let aa = registry.resolve("aa").unwrap().with_config(quick_config());
    registry.register(Box::new(TimelessSolver(aa))).unwrap();
    // Six keys through a three-entry cache: hits, misses and evictions
    // interleave on three connections and two workers.
    let service = Arc::new(
        ServiceConfig::new(quick_config())
            .with_worker_threads(2)
            .with_cache_capacity(3)
            .build_with(registry, ScenarioCatalog::builtin()),
    );
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let keys: Vec<SolveRequest> = (0..6u64)
        .map(|seed| {
            let request = SolveRequest::catalog("paper_default", seed % 3);
            let request = if seed < 3 {
                request
            } else {
                SolveRequest::drifted("paper_default", seed % 3, 1)
            };
            request.with_solver("timeless")
        })
        .collect();
    let expected: Vec<Fingerprint> = keys
        .iter()
        .map(|k| service.resolve_scenario(&k.scenario).unwrap().fingerprint())
        .collect();

    let (connections, rounds, depth) = (3usize, 40usize, 3usize);
    let replies: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (server, keys) = (&server, &keys);
                scope.spawn(move || {
                    let mut stream = connect(server);
                    let mut replies = Vec::new();
                    for round in 0..rounds {
                        // A few pipelined requests per round, so a hit can
                        // overtake a miss on the same connection.
                        for slot in 0..depth {
                            let k = (round * (c + 2) + slot * (c + 1) + c) % keys.len();
                            let body = keys[k].clone().with_id(&k.to_string()).to_json();
                            wire::write_frame(&mut stream, body.as_bytes()).unwrap();
                        }
                        for _ in 0..depth {
                            let frame = read_frame(&mut stream).unwrap().expect("a reply");
                            let reply =
                                WireReply::from_json(std::str::from_utf8(&frame).unwrap()).unwrap();
                            let WireReply::Ok(response) = reply else {
                                panic!("{reply:?}");
                            };
                            let k: usize = response.id.as_deref().unwrap().parse().unwrap();
                            replies.push((k, frame));
                        }
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // The solver renders the same bytes on every solve of a scenario, so
    // every reply for a key, a hit or a re-solve after an eviction, carries
    // that key's own fingerprint and the first reply's report bytes.
    let mut firsts: HashMap<usize, &[u8]> = HashMap::new();
    let mut hits = 0usize;
    for (k, frame) in &replies {
        let WireReply::Ok(response) =
            WireReply::from_json(std::str::from_utf8(frame).unwrap()).unwrap()
        else {
            unreachable!("only successes were kept");
        };
        assert_eq!(response.fingerprint, expected[*k], "key {k}");
        hits += usize::from(response.cache == CacheOutcome::Hit);
        let first = *firsts.entry(*k).or_insert_with(|| report_bytes(frame));
        assert!(
            report_bytes(frame) == first,
            "key {k}: a reply's report bytes differ from the first reply's"
        );
    }
    assert_eq!(replies.len(), connections * rounds * depth);
    let cache = service.stats().cache;
    assert!(hits > 0 && cache.evictions > 0, "{cache:?}");
    assert_eq!(cache.exact_hits + cache.exact_misses, cache.exact_lookups());
    assert_eq!(cache.insertions - cache.evictions, cache.entries as u64);
    server.shutdown();
}
