//! The network front end: a framed TCP listener over a shared
//! [`SolveService`].
//!
//! # Architecture
//!
//! ```text
//!            accept thread          reader thread (per connection)
//! TCP ──► TcpListener ──► TcpStream ──► FrameDecoder ──► parse envelope
//!                                                              │
//!                                                  request key cached? ── yes ──► hit frame
//!                                                              │ no                   │
//!                                                              │ full?                │
//!                                   bounded admission queue ◄──┘                      │
//!                                             │                └──► shed              │
//!                                     worker pool (N threads)       (v2 "overloaded") │
//!                                             │                                       │
//!                                     SolveService::handle                            │
//!                           (key → cache → singleflight → solve)                      │
//!                                             │                                       │
//!                                     response frame ──► connection writer ◄──────────┘
//! ```
//!
//! * **Hits on the reader**: right after parsing a frame, the reader looks
//!   the request's canonical key up in the cache (see
//!   [`crate::service`]) and writes a hit itself, so a hit never waits for
//!   a worker. Only misses enter the admission queue, so
//!   [`NetStats::max_queue_depth`] counts misses only. The reader never
//!   resolves a scenario: resolution can replay up to
//!   [`MAX_DRIFT_STEP`](crate::request::MAX_DRIFT_STEP) drift steps, so it
//!   stays on the workers, and a reader's work per frame stays bounded by
//!   the frame.
//!
//! * **Framing and envelope** come from [`crate::wire`]: length-prefixed
//!   JSON frames, `quhe-serve/v2` responses (v1 request bodies are accepted
//!   but always answered in v2 — the TCP front end never had v1 clients).
//! * **Backpressure**: each parsed request is admitted to a queue bounded by
//!   [`ServiceConfig::queue_bound`](crate::ServiceConfig::queue_bound).
//!   When the queue is full the request is *shed immediately* with an
//!   `overloaded` error envelope instead of being buffered without bound —
//!   the client learns within one round trip that it must back off.
//! * **Pipelining**: a client may send many frames without waiting;
//!   responses are correlated by `id` and may arrive out of order (workers
//!   finish when they finish, and a hit pipelined behind a miss overtakes
//!   it).
//! * **Malformed input** never kills a connection that is still in frame
//!   sync: garbage JSON and oversized frames are answered with error
//!   envelopes and the reader resynchronizes on the next frame. A stream
//!   that ends mid-frame gets a best-effort truncation envelope before the
//!   connection closes.
//! * **Panics**: a solve that panics is answered with a retryable
//!   `overloaded` envelope, and its worker carries on with the next job.
//! * **Slow readers**: a response frame not written within
//!   [`WRITE_TIMEOUT`] fails, and a failed write shuts the connection down,
//!   so a client that stops reading costs a worker at most that long instead
//!   of for good, and never receives a frame after a half-written one. A
//!   client that stops reading while it sends hits holds only its own
//!   reader, which writes them.
//! * **Graceful shutdown**: [`TcpServer::shutdown`] stops accepting,
//!   unwinds the readers, drains the queue, answers everything already
//!   admitted, then joins the workers.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quhe_core::error::QuheError;

use crate::request::SolveRequest;
use crate::service::SolveService;
use crate::wire::{self, FrameDecoder, Protocol};

/// How long blocking waits (reads, queue pops, accept polls) last before
/// re-checking the shutdown flag — the upper bound on shutdown latency.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long writing one response frame may take before it fails and the
/// connection is shut down — the longest a client that stops reading can
/// hold the worker writing to it.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Recovers a `std` lock from a poisoned state (plain data behind it).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The write side of one connection, shared by its reader thread (which
/// writes hits and rejection and shed envelopes) and the workers answering
/// its other requests.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    /// Set once a write failed and the connection was shut down: its reader
    /// stops reading, and workers drop its queued requests unanswered.
    closed: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Mutex::new(stream),
            closed: AtomicBool::new(false),
        }
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// One admitted request: everything a worker needs to answer it.
struct Job {
    request: SolveRequest,
    /// The request's key, built by the reader for its cache lookup.
    key: String,
    writer: Arc<ConnWriter>,
}

#[derive(Default)]
struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded admission queue between readers and workers.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    bound: usize,
}

enum Push {
    Admitted(usize),
    Full,
    Closed,
}

impl JobQueue {
    fn new(bound: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// Admits a job unless the queue is at its bound (shed) or closed.
    /// Returns the queue depth after admission.
    fn try_push(&self, job: Job) -> Push {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Push::Closed;
        }
        if inner.jobs.len() >= self.bound {
            return Push::Full;
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        drop(inner);
        self.ready.notify_one();
        Push::Admitted(depth)
    }

    /// Pops the next job, waiting up to [`POLL_INTERVAL`]. Returns `None`
    /// when the queue is closed *and* drained — the worker's exit signal.
    fn pop(&self) -> Option<Option<Job>> {
        let mut inner = lock(&self.inner);
        if let Some(job) = inner.jobs.pop_front() {
            return Some(Some(job));
        }
        if inner.closed {
            return None;
        }
        let (mut inner, _) = self
            .ready
            .wait_timeout(inner, POLL_INTERVAL)
            .unwrap_or_else(|e| e.into_inner());
        if let Some(job) = inner.jobs.pop_front() {
            return Some(Some(job));
        }
        if inner.closed {
            return None;
        }
        Some(None)
    }

    fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        lock(&self.inner).jobs.len()
    }
}

/// Monotonic front-end counters (one lock, so snapshots are consistent —
/// same policy as the service's own counters).
#[derive(Debug, Default, Clone, Copy)]
struct NetCounters {
    connections: usize,
    frames: usize,
    responses: usize,
    shed: usize,
    rejected_frames: usize,
    max_queue_depth: usize,
}

/// A consistent snapshot of the front end's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted since bind.
    pub connections: usize,
    /// Complete frames received (well-formed or not).
    pub frames: usize,
    /// Response frames written (success and error envelopes alike). A
    /// frame is counted before its bytes reach the socket, so a reply a
    /// client has read is always counted; a frame whose write fails is
    /// uncounted again.
    pub responses: usize,
    /// Requests shed because the admission queue was full — each was
    /// answered with an `overloaded` error envelope.
    pub shed: usize,
    /// Frames rejected before admission (oversized, garbage JSON, unknown
    /// protocol) — each was answered with an `invalid_request` envelope.
    pub rejected_frames: usize,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: usize,
    /// High-water mark of the admission queue. Hits are answered by the
    /// connection's reader and never queued, so this counts misses only.
    pub max_queue_depth: usize,
}

struct Shared {
    service: Arc<SolveService>,
    queue: JobQueue,
    shutdown: AtomicBool,
    counters: Mutex<NetCounters>,
}

impl Shared {
    fn count(&self, bump: impl FnOnce(&mut NetCounters)) {
        bump(&mut lock(&self.counters));
    }

    /// Writes one response frame, counting it. The count moves before the
    /// write: a client may read the frame the moment its bytes reach the
    /// socket, and a snapshot taken after that must already include it. A
    /// failed write takes its count back — the client may already be gone,
    /// which is its prerogative, and nothing was delivered. A failed or
    /// timed-out write ([`WRITE_TIMEOUT`]) may have left part of the frame
    /// on the wire, so it also shuts the connection down and marks it
    /// closed: no frame can follow the broken one, and the connection's
    /// reader exits.
    fn respond(&self, writer: &ConnWriter, body: &str) {
        if writer.is_closed() {
            return;
        }
        self.count(|c| c.responses += 1);
        let mut stream = lock(&writer.stream);
        if write_frame_within(&mut stream, body.as_bytes()).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            writer.closed.store(true, Ordering::SeqCst);
            drop(stream);
            self.count(|c| c.responses -= 1);
        }
    }
}

/// Writes one frame to a connection whose write timeout is
/// [`WRITE_TIMEOUT`], failing once the frame has taken that long in all.
/// Header and payload go out in one vectored write, and the common case is
/// that one call. After a partial write the socket's timeout shrinks to the
/// time left: a client whose kernel reopens its receive window a little at a
/// time, while the client itself reads nothing, would otherwise stretch one
/// frame over many timeouts.
fn write_frame_within(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    let header = wire::frame_header(payload, wire::MAX_FRAME_BYTES)?;
    let total = header.len() + payload.len();
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut sent = 0usize;
    let mut shortened = false;
    loop {
        let written = match sent.checked_sub(header.len()) {
            None => stream.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)]),
            Some(at) => stream.write(&payload[at..]),
        };
        match written {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if sent == total {
            break;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        shortened = true;
    }
    if shortened {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    }
    Ok(())
}

/// A running framed-TCP front end over a shared [`SolveService`].
///
/// Sizing (worker threads, admission-queue bound) comes from the service's
/// [`ServiceConfig`](crate::ServiceConfig). Dropping the
/// server without calling [`TcpServer::shutdown`] also shuts down, so a
/// panicking test does not leak threads.
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    connection_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl TcpServer {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port, then
    /// [`TcpServer::local_addr`]) and starts the accept loop and worker
    /// pool.
    ///
    /// # Errors
    /// The underlying bind/configuration `io` errors.
    pub fn bind(service: Arc<SolveService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let workers = match service.config().worker_threads() {
            0 => threadpool::available_parallelism(),
            n => n,
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::new(service.config().queue_bound()),
            service,
            shutdown: AtomicBool::new(false),
            counters: Mutex::new(NetCounters::default()),
        });

        let mut worker_handles: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("quhe-serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => worker_handles.push(handle),
                Err(e) => return Err(abort_startup(&shared, worker_handles, e)),
            }
        }

        let connection_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let accept_shared = Arc::clone(&shared);
            let connections = Arc::clone(&connection_handles);
            match std::thread::Builder::new()
                .name("quhe-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &accept_shared, &connections))
            {
                Ok(handle) => handle,
                Err(e) => return Err(abort_startup(&shared, worker_handles, e)),
            }
        };

        Ok(Self {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
            connection_handles,
        })
    }

    /// The bound address (the ephemeral port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this front end drains into.
    pub fn service(&self) -> &Arc<SolveService> {
        &self.shared.service
    }

    /// A consistent snapshot of the front-end counters and queue depth.
    pub fn stats(&self) -> NetStats {
        let counters = *lock(&self.shared.counters);
        NetStats {
            connections: counters.connections,
            frames: counters.frames,
            responses: counters.responses,
            shed: counters.shed,
            rejected_frames: counters.rejected_frames,
            queue_depth: self.shared.queue.depth(),
            max_queue_depth: counters.max_queue_depth,
        }
    }

    /// Gracefully shuts down: stop accepting, unwind readers, answer every
    /// admitted request, join all threads. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Readers observe the flag within one poll interval; once they are
        // gone nothing new can enter the queue, so closing it lets the
        // workers drain what was admitted and exit. Take the handles out
        // under the lock, then join without it — a reader that outlives the
        // poll interval must not block the accept loop's registry.
        let connection_handles = std::mem::take(&mut *lock(&self.connection_handles));
        for handle in connection_handles {
            let _ = handle.join();
        }
        self.shared.queue.close();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Unwinds a partially started server when a startup thread spawn fails:
/// closing the queue releases any workers already parked on it, so they can
/// be joined before the bind error is handed back to the caller.
fn abort_startup(
    shared: &Arc<Shared>,
    worker_handles: Vec<JoinHandle<()>>,
    error: std::io::Error,
) -> std::io::Error {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
    for handle in worker_handles {
        let _ = handle.join();
    }
    error
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut next_id = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.count(|c| c.connections += 1);
                let shared = Arc::clone(shared);
                let id = next_id;
                next_id += 1;
                // Reap the connections that have closed since the last
                // accept, so the registry holds live connections only.
                for handle in take_finished(connections) {
                    let _ = handle.join();
                }
                // A failed spawn (thread exhaustion) drops the stream: the
                // client observes a closed connection and can retry, while
                // the server keeps serving the connections it already has.
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("quhe-serve-conn-{id}"))
                    .spawn(move || connection_loop(stream, &shared))
                {
                    lock(connections).push(handle);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Takes the handles of exited connection threads out of the registry. The
/// caller joins them after the registry's lock is released.
fn take_finished(connections: &Mutex<Vec<JoinHandle<()>>>) -> Vec<JoinHandle<()>> {
    let mut registry = lock(connections);
    let (finished, live) = std::mem::take(&mut *registry)
        .into_iter()
        .partition(JoinHandle::is_finished);
    *registry = live;
    finished
}

fn connection_loop(stream: TcpStream, shared: &Shared) {
    // The accepted stream must block (with a read timeout so shutdown is
    // observed, and a write timeout so a client that stops reading cannot
    // hold a worker) even though the listener is non-blocking.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter::new(clone)),
        Err(_) => return,
    };
    let mut reader = stream;
    let mut decoder = FrameDecoder::default();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || writer.is_closed() {
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                // End of stream: a clean frame boundary is a normal close; a
                // mid-frame end gets a best-effort truncation envelope.
                if let Err(e) = decoder.finish() {
                    shared.count(|c| c.rejected_frames += 1);
                    shared.respond(
                        &writer,
                        &wire::error_envelope(Protocol::V2, None, &e.into()),
                    );
                }
                return;
            }
            Ok(n) => {
                decoder.push(&chunk[..n]);
                drain_frames(&mut decoder, &writer, shared);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Takes every complete frame out of the decoder: parse, admit or shed.
fn drain_frames(decoder: &mut FrameDecoder, writer: &Arc<ConnWriter>, shared: &Shared) {
    // A connection shut down by a failed write takes no more requests.
    while !writer.is_closed() {
        match decoder.next_frame() {
            Ok(None) => return,
            Ok(Some(frame)) => {
                shared.count(|c| c.frames += 1);
                handle_frame(&frame, writer, shared);
            }
            Err(e) => {
                // Oversized declaration: reject, stay in sync (the decoder
                // drains the payload), keep the connection.
                shared.count(|c| {
                    c.frames += 1;
                    c.rejected_frames += 1;
                });
                shared.respond(writer, &wire::error_envelope(Protocol::V2, None, &e.into()));
            }
        }
    }
}

fn handle_frame(frame: &[u8], writer: &Arc<ConnWriter>, shared: &Shared) {
    let text = match std::str::from_utf8(frame) {
        Ok(text) => text,
        Err(_) => {
            shared.count(|c| c.rejected_frames += 1);
            let error = QuheError::InvalidConfig {
                reason: "frame payload is not valid UTF-8".to_string(),
            };
            shared.respond(writer, &wire::error_envelope(Protocol::V2, None, &error));
            return;
        }
    };
    // The TCP front end accepts v1 and v2 request bodies but always answers
    // v2 — it postdates the envelope, so there are no legacy TCP clients.
    let (_proto, id, request) = wire::parse_request(text);
    let request = match request {
        Ok(request) => request,
        Err(e) => {
            shared.count(|c| c.rejected_frames += 1);
            shared.respond(
                writer,
                &wire::error_envelope(Protocol::V2, id.as_deref(), &e),
            );
            return;
        }
    };
    // A hit is answered here, without a worker; only misses are queued.
    let key = request.key();
    if let Some(hit) = shared.service.serve_by_key(&request, &key) {
        shared.respond(writer, &hit.envelope_v2());
        return;
    }
    match shared.queue.try_push(Job {
        request,
        key,
        writer: Arc::clone(writer),
    }) {
        Push::Admitted(depth) => {
            shared.count(|c| c.max_queue_depth = c.max_queue_depth.max(depth));
        }
        Push::Full => {
            shared.count(|c| c.shed += 1);
            let error = QuheError::Overloaded {
                reason: format!(
                    "admission queue full ({} pending); back off and retry",
                    shared.queue.bound
                ),
            };
            shared.respond(
                writer,
                &wire::error_envelope(Protocol::V2, id.as_deref(), &error),
            );
        }
        Push::Closed => {
            shared.respond(
                writer,
                &wire::error_envelope(Protocol::V2, id.as_deref(), &QuheError::ShuttingDown),
            );
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let Some(job) = job else {
            continue; // timed out waiting; re-check for closure
        };
        if job.writer.is_closed() {
            continue; // nobody can read the answer
        }
        let id = job.request.id.clone();
        // A panicking solve must cost neither this worker nor the client's
        // reply: it gets the retryable error that the coalesced followers
        // of an unwound leader get.
        let handled = panic::catch_unwind(AssertUnwindSafe(|| {
            shared.service.handle_v2(&job.request, &job.key)
        }))
        .unwrap_or_else(|_| {
            Err(QuheError::Overloaded {
                reason: "the solve panicked before answering; retry".to_string(),
            })
        });
        let body =
            handled.unwrap_or_else(|e| wire::error_envelope(Protocol::V2, id.as_deref(), &e));
        shared.respond(&job.writer, &body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The queue's shed and close semantics are pure logic, testable without
    // sockets — the full listener path is covered by the loopback
    // integration tests in `tests/net_invariants.rs`.
    fn dummy_job() -> Job {
        // A connected pair purely to satisfy the Job shape.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let request = SolveRequest::catalog("paper_default", 1);
        Job {
            key: request.key(),
            request,
            writer: Arc::new(ConnWriter::new(client)),
        }
    }

    #[test]
    fn closed_connections_are_reaped_on_the_next_accept() {
        use quhe_core::params::QuheConfig;
        use std::time::Instant;

        let service = crate::ServiceConfig::new(QuheConfig::default()).build();
        let server = TcpServer::bind(Arc::new(service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let wait_until = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let registered = || lock(&server.connection_handles).len();
        for accepted in 1..=20 {
            drop(TcpStream::connect(addr).unwrap());
            wait_until("the accept", &|| server.stats().connections == accepted);
        }
        wait_until("the closed connections' threads to exit", &|| {
            lock(&server.connection_handles)
                .iter()
                .all(JoinHandle::is_finished)
        });
        let _open = TcpStream::connect(addr).unwrap();
        wait_until("the 21st accept", &|| server.stats().connections == 21);
        // The accept thread registers the new handle just after counting
        // the connection.
        let deadline = Instant::now() + Duration::from_secs(10);
        while registered() > 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            registered() <= 2,
            "the registry holds {} handles after 20 closed connections and one open one",
            registered()
        );
        server.shutdown();
    }

    #[test]
    fn the_queue_sheds_at_its_bound_and_drains_after_close() {
        let queue = JobQueue::new(2);
        assert!(matches!(queue.try_push(dummy_job()), Push::Admitted(1)));
        assert!(matches!(queue.try_push(dummy_job()), Push::Admitted(2)));
        assert!(matches!(queue.try_push(dummy_job()), Push::Full));
        assert_eq!(queue.depth(), 2);
        queue.close();
        assert!(matches!(queue.try_push(dummy_job()), Push::Closed));
        // Admitted jobs are still drained after closure...
        assert!(matches!(queue.pop(), Some(Some(_))));
        assert!(matches!(queue.pop(), Some(Some(_))));
        // ...and only then do workers see the exit signal.
        assert!(queue.pop().is_none());
    }
}
