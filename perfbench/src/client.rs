//! Load generation over the server's framed TCP protocol.
//!
//! Every connection sets `TCP_NODELAY` and writes each frame (length prefix
//! and body) in one write, so no request waits on Nagle's algorithm. Replies
//! are only scanned during the window — the cache tag, and whether the report
//! bytes equal the first response for the same key; full parsing happens in
//! verification, after the window.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use quhe_serve::wire::read_frame;
use quhe_serve::CacheOutcome;

use crate::plan::{Key, Plan};
use crate::trace::Recorder;

/// How a reply came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A success envelope with this cache tag.
    Ok(CacheOutcome),
    /// An error envelope with this error kind (`overloaded` for a shed).
    Err(String),
}

/// One timed reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Index into [`Plan::requests`].
    pub request: usize,
    /// Seconds from send to reply.
    pub latency_s: f64,
    /// Seconds from the start of the window to the reply.
    pub done_s: f64,
    /// Tag or error kind.
    pub outcome: Outcome,
    /// Whether the report bytes equal the first response for the same key.
    pub identical: bool,
}

/// The first response frame seen for each key, shared by all connections:
/// later responses for the key must carry bit-identical report bytes.
#[derive(Debug, Default)]
pub struct FirstFrames(Mutex<HashMap<Key, (Vec<u8>, usize)>>);

impl FirstFrames {
    /// Records `frame` as the first response for `key`, or reports whether
    /// its report bytes (from `report_at`) equal the first one's.
    fn check(&self, key: Key, frame: Vec<u8>, report_at: usize) -> bool {
        let mut map = self
            .0
            .lock()
            .expect("no client thread panics holding the map");
        match map.get(&key) {
            Some((first, at)) => first[*at..] == frame[report_at..],
            None => {
                map.insert(key, (frame, report_at));
                true
            }
        }
    }

    /// The recorded first frames.
    pub fn into_inner(self) -> HashMap<Key, (Vec<u8>, usize)> {
        self.0.into_inner().expect("client threads have ended")
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The string value following `"key": "` (the envelope writer's format).
fn string_field<'a>(frame: &'a [u8], key: &[u8]) -> Option<&'a str> {
    let start = find(frame, key)? + key.len();
    let len = frame[start..].iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&frame[start..start + len]).ok()
}

/// Scans a reply envelope: its outcome, and for successes the offset of the
/// report. The report is the last field of the result object, so the bytes
/// from there on are the report plus fixed closing brackets.
fn scan(frame: &[u8]) -> (Outcome, usize) {
    if find(frame, b"\"ok\": true").is_some() {
        let tag = string_field(frame, b"\"cache\": \"").and_then(CacheOutcome::from_tag);
        match (tag, find(frame, b"\"report\": ")) {
            (Some(tag), Some(at)) => (Outcome::Ok(tag), at),
            _ => (Outcome::Err("unreadable_reply".to_string()), frame.len()),
        }
    } else {
        let kind = string_field(frame, b"\"kind\": \"").unwrap_or("unreadable_reply");
        (Outcome::Err(kind.to_string()), frame.len())
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    Ok((stream, reader))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> std::io::Result<Vec<u8>> {
    read_frame(reader)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
    })
}

/// Closed loop on one connection: send, wait for the reply, repeat — through
/// `stream` or until `deadline`. With a recorder, each request gets a
/// `client.request` span with `client.send` and `client.wait` children.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    stream: &[usize],
    origin: Instant,
    deadline: Option<Instant>,
    first: &FirstFrames,
    mut recorder: Option<&mut Recorder>,
) -> std::io::Result<Vec<Reply>> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut replies = Vec::with_capacity(stream.len().min(1 << 16));
    for (seq, &index) in stream.iter().enumerate() {
        let sent = Instant::now();
        if deadline.is_some_and(|d| sent >= d) {
            break;
        }
        let request = &plan.requests[index];
        if let Some(rec) = recorder.as_deref_mut() {
            rec.set_request(seq);
            rec.begin("client.request", None);
            rec.begin("client.send", None);
        }
        writer.write_all(&request.frame)?;
        if let Some(rec) = recorder.as_deref_mut() {
            rec.end();
            rec.begin("client.wait", None);
        }
        let frame = read_reply(&mut reader)?;
        let done = Instant::now();
        if let Some(rec) = recorder.as_deref_mut() {
            rec.end();
        }
        let (outcome, report_at) = scan(&frame);
        let identical =
            matches!(outcome, Outcome::Ok(_)) && first.check(request.key, frame, report_at);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.end();
        }
        replies.push(Reply {
            request: index,
            latency_s: done.duration_since(sent).as_secs_f64(),
            done_s: done.duration_since(origin).as_secs_f64(),
            outcome,
            identical,
        });
    }
    Ok(replies)
}

/// Runs the set-up phases: each phase's requests are spread over two
/// connections, and a phase ends before the next starts.
pub fn run_setup(
    addr: SocketAddr,
    plan: &Plan,
    first: &FirstFrames,
) -> std::io::Result<Vec<Reply>> {
    let origin = Instant::now();
    let mut replies = Vec::new();
    for phase in &plan.setup {
        let halves: Vec<Vec<usize>> = (0..2)
            .map(|half| phase.iter().skip(half).step_by(2).copied().collect())
            .collect();
        let results: Vec<std::io::Result<Vec<Reply>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = halves
                .iter()
                .map(|half| {
                    scope.spawn(|| closed_loop(addr, plan, half, origin, None, first, None))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up client thread"))
                .collect()
        });
        for result in results {
            replies.extend(result?);
        }
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_reads_tags_kinds_and_the_report_offset() {
        let ok = b"{\n  \"ok\": true,\n  \"result\": {\n    \"cache\": \"warm_fallback\",\n    \"report\": {}\n  }\n}\n";
        let (outcome, at) = scan(ok);
        assert_eq!(outcome, Outcome::Ok(CacheOutcome::WarmFallback));
        assert!(ok[at..].starts_with(b"\"report\": "));
        let err = b"{\"ok\": false, \"error\": {\"kind\": \"overloaded\", \"message\": \"x\"}}";
        assert_eq!(scan(err).0, Outcome::Err("overloaded".to_string()));
    }
}
