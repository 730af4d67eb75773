//! The network front end: a framed TCP listener over a shared
//! [`SolveService`].
//!
//! # Architecture
//!
//! ```text
//!            accept thread          reader thread (per connection)
//! TCP ──► TcpListener ──► TcpStream ──► FrameDecoder ──► parse envelope
//!                                             │                │ full?
//!                                   bounded admission queue ◄──┘
//!                                             │                └──► shed
//!                                     worker pool (N threads)       (v2 "overloaded")
//!                                             │
//!                                     SolveService::handle
//!                                   (cache → singleflight → solve)
//!                                             │
//!                                     response frame ──► connection writer
//! ```
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
//!   finish when they finish).
//! * **Malformed input** never kills a connection that is still in frame
//!   sync: garbage JSON and oversized frames are answered with error
//!   envelopes and the reader resynchronizes on the next frame. A stream
//!   that ends mid-frame gets a best-effort truncation envelope before the
//!   connection closes.
//! * **Graceful shutdown**: [`TcpServer::shutdown`] stops accepting,
//!   unwinds the readers, drains the queue, answers everything already
//!   admitted, then joins the workers.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use quhe_core::error::QuheError;

use crate::request::SolveRequest;
use crate::service::SolveService;
use crate::wire::{self, FrameDecoder, Protocol};

/// How long blocking waits (reads, queue pops, accept polls) last before
/// re-checking the shutdown flag — the upper bound on shutdown latency.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Recovers a `std` lock from a poisoned state (plain data behind it).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One admitted request: everything a worker needs to answer it.
struct Job {
    request: SolveRequest,
    writer: Arc<Mutex<TcpStream>>,
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
    /// High-water mark of the admission queue.
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
    /// which is its prerogative, and nothing was delivered.
    fn respond(&self, writer: &Mutex<TcpStream>, body: &str) {
        self.count(|c| c.responses += 1);
        if wire::write_frame(&mut *lock(writer), body.as_bytes()).is_err() {
            self.count(|c| c.responses -= 1);
        }
    }
}

/// A running framed-TCP front end over a shared [`SolveService`].
///
/// Sizing (worker threads, admission-queue bound, coalescing) comes from
/// the service's [`ServiceConfig`](crate::ServiceConfig). Dropping the
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

fn connection_loop(stream: TcpStream, shared: &Shared) {
    // The accepted stream must block (with a timeout so shutdown is
    // observed) even though the listener is non-blocking.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = stream;
    let mut decoder = FrameDecoder::default();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
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
fn drain_frames(decoder: &mut FrameDecoder, writer: &Arc<Mutex<TcpStream>>, shared: &Shared) {
    loop {
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

fn handle_frame(frame: &[u8], writer: &Arc<Mutex<TcpStream>>, shared: &Shared) {
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
    match shared.queue.try_push(Job {
        request,
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
        let id = job.request.id.clone();
        let body = match shared.service.handle(&job.request) {
            Ok(response) => wire::ok_envelope(Protocol::V2, &response),
            Err(e) => wire::error_envelope(Protocol::V2, id.as_deref(), &e),
        };
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
        Job {
            request: SolveRequest::catalog("paper_default", 1),
            writer: Arc::new(Mutex::new(client)),
        }
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
