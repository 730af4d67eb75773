//! The wire protocol of the serve layer: length-prefixed JSON frames and
//! the versioned `quhe-serve/v2` request/response envelope.
//!
//! # Framing
//!
//! A frame is a 4-byte big-endian payload length followed by that many bytes
//! of UTF-8 JSON. The codec enforces a strict payload limit
//! ([`MAX_FRAME_BYTES`] by default): an oversized declaration is reported
//! once and the payload is then drained without buffering, so the connection
//! stays framed and alive. [`FrameDecoder`] is an incremental decoder —
//! feed it arbitrary read chunks, take complete frames out — and
//! [`write_frame`]/[`read_frame`] are the blocking one-shot forms.
//!
//! # Envelope v2
//!
//! A v2 **request** is the v1 request body plus a protocol marker:
//!
//! ```json
//! {"proto": "quhe-serve/v2", "id": "req-1",
//!  "scenario": {"catalog": "paper_default", "seed": 42},
//!  "solver": "quhe", "spec": null}
//! ```
//!
//! Every v2 **response** carries the marker, the echoed request `id` (null
//! when the request had none or was unparseable) and a uniform `ok`
//! discriminator:
//!
//! ```json
//! {"proto": "quhe-serve/v2", "id": "req-1", "ok": true,  "result": { ... }}
//! {"proto": "quhe-serve/v2", "id": "req-1", "ok": false,
//!  "error": {"kind": "overloaded", "message": "..."}}
//! ```
//!
//! `result` is the [`SolveResponse`] object. Its last field, `report`, is
//! written from bytes the cache rendered once, when it stored the report,
//! so every response for a cache entry carries the same report bytes
//! without re-rendering them. `service_wall_s` sits in `result`'s head and
//! never in those bytes.
//!
//! `error.kind` is the stable tag of [`QuheError::kind`] — `"overloaded"`
//! is the shed-load signal (back off and retry), `"invalid_request"` a
//! malformed body. A body without `"proto"` is a **v1** request
//! (deprecated): still accepted everywhere, and answered in the legacy v1
//! shape by [`SolveService::handle_json`](crate::SolveService::handle_json)
//! so old callers keep working. The TCP front end answers v2 regardless of
//! the request version — it never had v1 clients.

use std::io::{self, Read, Write};

use quhe_core::error::{QuheError, QuheResult};
use quhe_core::json::JsonValue;
use quhe_core::solver::SolveReport;

use crate::request::SolveRequest;
use crate::service::{ResponseHead, SolveResponse};

/// The current protocol identifier, carried in every v2 body.
pub const PROTOCOL_V2: &str = "quhe-serve/v2";

/// Default strict limit on a frame's payload length in bytes. A request or
/// response of this protocol is a few KiB; a megabyte already means a
/// confused or hostile peer.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Protocol version of a request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Legacy unversioned body (no `"proto"` field). Deprecated: accepted
    /// for compatibility, v1 callers should migrate to v2.
    V1,
    /// The versioned envelope described in this module.
    V2,
}

impl Protocol {
    /// The marker string of this version (`None` for the unmarked v1).
    pub fn marker(&self) -> Option<&'static str> {
        match self {
            Protocol::V1 => None,
            Protocol::V2 => Some(PROTOCOL_V2),
        }
    }
}

fn malformed(detail: &str) -> QuheError {
    QuheError::InvalidConfig {
        reason: format!("malformed wire request: {detail}"),
    }
}

/// Parses a request body of either protocol version.
///
/// Returns the detected protocol version even on failure, so the caller can
/// answer in the shape the client expects. The returned `id`, when present,
/// survives body-level parse failures whenever the envelope itself was
/// readable — error envelopes echo it.
pub fn parse_request(text: &str) -> (Protocol, Option<String>, QuheResult<SolveRequest>) {
    let value = match JsonValue::parse(text) {
        Ok(value) => value,
        Err(e) => {
            return (
                Protocol::V1,
                None,
                Err(malformed(&format!("invalid JSON: {e}"))),
            )
        }
    };
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .map(ToString::to_string);
    let proto = match value.get("proto") {
        None => Protocol::V1,
        Some(marker) => match marker.as_str() {
            Some(PROTOCOL_V2) => Protocol::V2,
            Some(other) => {
                return (
                    Protocol::V2,
                    id,
                    Err(malformed(&format!(
                        "unsupported protocol '{other}' (this service speaks {PROTOCOL_V2} \
                         and the legacy unversioned v1)"
                    ))),
                )
            }
            None => {
                return (
                    Protocol::V2,
                    id,
                    Err(malformed("field 'proto' must be a string")),
                )
            }
        },
    };
    let request = SolveRequest::from_json_value(&value);
    (proto, id, request)
}

/// How deep the v2 success envelope nests the report: at `result.report`.
const REPORT_DEPTH: usize = 2;

/// Renders `report` exactly as the v2 success envelope nests it at
/// `result.report`. The cache renders each report once, when it is stored
/// ([`ScenarioCache::store`](crate::cache::ScenarioCache::store)), and every
/// v2 response for that entry splices in the same bytes.
pub(crate) fn render_report(report: &SolveReport) -> String {
    let mut out = String::new();
    report.to_json_value().write_pretty(&mut out, REPORT_DEPTH);
    out
}

/// The success envelope for `response`, in the client's protocol version:
/// the plain response object for v1, the `ok: true` envelope for v2.
pub fn ok_envelope(proto: Protocol, response: &SolveResponse) -> String {
    match proto {
        Protocol::V1 => response.to_json(),
        Protocol::V2 => ok_envelope_v2(&response.head(), &render_report(&response.report)),
    }
}

/// The one writer of the v2 success envelope: `head` and the report bytes
/// of [`render_report`], laid out as `JsonValue::to_pretty_string` lays out
/// the tree of [`SolveResponse::to_json_value`] inside the envelope, with
/// the report as the last field of `result`.
pub(crate) fn ok_envelope_v2(head: &ResponseHead, report_json: &str) -> String {
    let mut out = String::with_capacity(report_json.len() + 1024);
    out.push_str("{\n");
    push_field(
        &mut out,
        1,
        "proto",
        &JsonValue::String(PROTOCOL_V2.to_string()),
    );
    push_field(&mut out, 1, "id", &head.id_value());
    push_field(&mut out, 1, "ok", &JsonValue::Bool(true));
    push_key(&mut out, 1, "result");
    out.push_str("{\n");
    for (key, value) in head.fields() {
        push_field(&mut out, REPORT_DEPTH, key, &value);
    }
    push_key(&mut out, REPORT_DEPTH, "report");
    out.push_str(report_json);
    out.push_str("\n  }\n}\n");
    out
}

/// Appends the indentation and the key of an object field `depth` levels
/// deep. The keys are plain identifiers, which need no escaping.
fn push_key(out: &mut String, depth: usize, key: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
}

/// Appends a whole object field `depth` levels deep that another field
/// follows.
fn push_field(out: &mut String, depth: usize, key: &str, value: &JsonValue) {
    push_key(out, depth, key);
    value.write_pretty(out, depth);
    out.push_str(",\n");
}

/// The error envelope for `error`, in the client's protocol version: the
/// legacy `{"id", "error": "<message>"}` object for v1, the `ok: false`
/// envelope with the stable `error.kind` tag for v2.
pub fn error_envelope(proto: Protocol, id: Option<&str>, error: &QuheError) -> String {
    let id_value = id.map_or(JsonValue::Null, |i| JsonValue::String(i.to_string()));
    match proto {
        Protocol::V1 => JsonValue::object()
            .with("id", id_value)
            .with("error", JsonValue::String(error.to_string()))
            .to_pretty_string(),
        Protocol::V2 => JsonValue::object()
            .with("proto", JsonValue::String(PROTOCOL_V2.to_string()))
            .with("id", id_value)
            .with("ok", JsonValue::Bool(false))
            .with(
                "error",
                JsonValue::object()
                    .with("kind", JsonValue::String(error.kind().to_string()))
                    .with("message", JsonValue::String(error.to_string())),
            )
            .to_pretty_string(),
    }
}

/// A parsed reply of either protocol version — the client-side dual of
/// [`ok_envelope`]/[`error_envelope`].
// One short-lived value per reply frame; the report-sized Ok variant is the
// common case, so boxing it would tax every success to slim the rare error.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// A successful solve response.
    Ok(SolveResponse),
    /// An error envelope.
    Err {
        /// Echo of the request id, when the service could recover it.
        id: Option<String>,
        /// Stable machine-readable error kind ([`QuheError::kind`] tags;
        /// `"error"` for a legacy v1 envelope, which carries no kind).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl WireReply {
    /// Parses a reply body of either version.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] when the body is neither a success
    /// response nor an error envelope of either version.
    pub fn from_json(text: &str) -> QuheResult<Self> {
        let value = JsonValue::parse(text).map_err(|e| QuheError::InvalidConfig {
            reason: format!("malformed wire reply: {e}"),
        })?;
        let id = value
            .get("id")
            .and_then(JsonValue::as_str)
            .map(ToString::to_string);
        match value.get("proto") {
            None => {
                // Legacy v1: an error envelope has a string "error" field,
                // anything else must parse as a plain response.
                if let Some(message) = value.get("error").and_then(JsonValue::as_str) {
                    return Ok(WireReply::Err {
                        id,
                        kind: "error".to_string(),
                        message: message.to_string(),
                    });
                }
                Ok(WireReply::Ok(SolveResponse::from_json_value(&value)?))
            }
            Some(_) => {
                let ok = value
                    .get("ok")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| QuheError::InvalidConfig {
                        reason: "malformed wire reply: missing boolean 'ok'".to_string(),
                    })?;
                if ok {
                    let result = value
                        .get("result")
                        .ok_or_else(|| QuheError::InvalidConfig {
                            reason: "malformed wire reply: ok without 'result'".to_string(),
                        })?;
                    return Ok(WireReply::Ok(SolveResponse::from_json_value(result)?));
                }
                let error = value
                    .get("error")
                    .and_then(JsonValue::as_object)
                    .ok_or_else(|| QuheError::InvalidConfig {
                        reason: "malformed wire reply: error without 'error' object".to_string(),
                    })?;
                let field = |key: &str| {
                    error
                        .iter()
                        .find(|(k, _)| k == key)
                        .and_then(|(_, v)| v.as_str())
                        .unwrap_or("")
                        .to_string()
                };
                Ok(WireReply::Err {
                    id,
                    kind: field("kind"),
                    message: field("message"),
                })
            }
        }
    }
}

/// Errors of the framing codec, distinct from `io` errors so the caller can
/// keep the connection alive where the stream is still in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer declared a payload larger than the decoder's limit. The
    /// decoder reports this once and then silently drains the declared
    /// payload: the stream stays framed, the connection may continue.
    Oversized {
        /// The declared payload length.
        declared: usize,
        /// The decoder's limit.
        limit: usize,
    },
    /// The stream ended in the middle of a frame (header or payload).
    Truncated {
        /// Bytes still missing when the stream ended.
        missing: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, limit } => write!(
                f,
                "frame payload of {declared} bytes exceeds the limit of {limit} bytes"
            ),
            FrameError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for QuheError {
    fn from(value: FrameError) -> Self {
        QuheError::InvalidConfig {
            reason: format!("malformed frame: {value}"),
        }
    }
}

/// Incremental frame decoder: feed read chunks with [`FrameDecoder::push`],
/// drain complete frames with [`FrameDecoder::next_frame`].
#[derive(Debug)]
pub struct FrameDecoder {
    limit: usize,
    buffer: Vec<u8>,
    /// Bytes of an oversized payload still to silently discard.
    draining: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new(MAX_FRAME_BYTES)
    }
}

impl FrameDecoder {
    /// A decoder enforcing `limit` bytes per payload (at least 1).
    pub fn new(limit: usize) -> Self {
        Self {
            limit: limit.max(1),
            buffer: Vec::new(),
            draining: 0,
        }
    }

    /// The enforced payload limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Feeds a chunk of bytes read from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.draining > 0 {
            let skip = self.draining.min(chunk.len());
            self.draining -= skip;
            self.buffer.extend_from_slice(&chunk[skip..]);
        } else {
            self.buffer.extend_from_slice(chunk);
        }
    }

    /// Whether bytes of an incomplete frame (or an undrained oversized
    /// payload) are pending — at end of stream this means truncation.
    pub fn mid_frame(&self) -> bool {
        !self.buffer.is_empty() || self.draining > 0
    }

    /// Bytes still missing to complete the pending frame (0 when idle).
    fn missing(&self) -> usize {
        if self.draining > 0 {
            return self.draining;
        }
        match self.buffer.len() {
            0 => 0,
            n if n < 4 => 4 - n,
            n => {
                let declared = declared_len(&self.buffer);
                (4 + declared).saturating_sub(n)
            }
        }
    }

    /// Takes the next complete frame out of the buffer.
    ///
    /// Returns `Ok(None)` when no complete frame is buffered yet.
    ///
    /// # Errors
    /// [`FrameError::Oversized`] once per oversized frame; the payload is
    /// then drained internally and decoding continues with the next frame.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.draining > 0 || self.buffer.len() < 4 {
            return Ok(None);
        }
        let declared = declared_len(&self.buffer);
        if declared > self.limit {
            // Enter drain mode: discard the declared payload (whatever part
            // is already buffered now, the rest as it arrives) and resync on
            // the following frame.
            let buffered_payload = self.buffer.len() - 4;
            let consumed = declared.min(buffered_payload);
            self.buffer.drain(..4 + consumed);
            self.draining = declared - consumed;
            return Err(FrameError::Oversized {
                declared,
                limit: self.limit,
            });
        }
        if self.buffer.len() < 4 + declared {
            return Ok(None);
        }
        let frame = self.buffer[4..4 + declared].to_vec();
        self.buffer.drain(..4 + declared);
        Ok(Some(frame))
    }

    /// Signals end of stream: `Ok(())` on a clean frame boundary,
    /// [`FrameError::Truncated`] when the stream died mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.mid_frame() {
            Err(FrameError::Truncated {
                missing: self.missing().max(1),
            })
        } else {
            Ok(())
        }
    }
}

fn declared_len(buffer: &[u8]) -> usize {
    u32::from_be_bytes([buffer[0], buffer[1], buffer[2], buffer[3]]) as usize
}

/// The 4-byte big-endian length prefix of a frame carrying `payload`.
///
/// # Errors
/// `InvalidInput` when `payload` exceeds `limit`.
pub(crate) fn frame_header(payload: &[u8], limit: usize) -> io::Result<[u8; 4]> {
    if payload.len() > limit {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "refusing to write a {} byte frame (limit {} bytes)",
                payload.len(),
                limit
            ),
        ));
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    Ok(len.to_be_bytes())
}

/// Writes one frame: the 4-byte big-endian length prefix, then `payload`.
///
/// # Errors
/// `InvalidInput` when `payload` exceeds `limit` (nothing is written), else
/// the underlying `io` errors.
pub fn write_frame_limited(w: &mut impl Write, payload: &[u8], limit: usize) -> io::Result<()> {
    w.write_all(&frame_header(payload, limit)?)?;
    w.write_all(payload)?;
    w.flush()
}

/// [`write_frame_limited`] at the default [`MAX_FRAME_BYTES`] limit.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_limited(w, payload, MAX_FRAME_BYTES)
}

/// Blocking one-shot read of a single frame at the default limit: returns
/// `Ok(None)` on a clean end of stream before any byte of a frame.
///
/// # Errors
/// `io` errors from the reader; [`FrameError`]s are surfaced as
/// `InvalidData`. Intended for simple clients — the server side uses the
/// incremental [`FrameDecoder`] so it can keep connections alive across
/// malformed frames.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read(&mut header)? {
        0 => return Ok(None),
        mut n => {
            while n < 4 {
                let got = r.read(&mut header[n..])?;
                if got == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        FrameError::Truncated { missing: 4 - n }.to_string(),
                    ));
                }
                n += got;
            }
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized {
                declared,
                limit: MAX_FRAME_BYTES,
            }
            .to_string(),
        ));
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::Truncated { missing: declared }.to_string(),
            )
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip_through_the_decoder_byte_by_byte() {
        let payloads: [&[u8]; 3] = [b"{}", b"", b"{\"id\": \"x\"}"];
        let mut stream = Vec::new();
        for p in payloads {
            stream.extend(frame_bytes(p));
        }
        let mut decoder = FrameDecoder::default();
        let mut frames = Vec::new();
        for byte in stream {
            decoder.push(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames, payloads.map(<[u8]>::to_vec).to_vec());
        assert!(!decoder.mid_frame());
        decoder.finish().unwrap();
    }

    #[test]
    fn oversized_frames_report_once_then_resync_on_the_next_frame() {
        let mut decoder = FrameDecoder::new(8);
        let big = vec![b'x'; 100];
        let mut stream = Vec::new();
        stream.extend((big.len() as u32).to_be_bytes());
        stream.extend(&big);
        stream.extend(frame_bytes(b"ok"));
        decoder.push(&stream[..10]); // header + 6 bytes of the big payload
        assert_eq!(
            decoder.next_frame(),
            Err(FrameError::Oversized {
                declared: 100,
                limit: 8
            })
        );
        assert!(decoder.mid_frame());
        decoder.push(&stream[10..]);
        assert_eq!(decoder.next_frame(), Ok(Some(b"ok".to_vec())));
        decoder.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_at_end_of_stream() {
        let mut decoder = FrameDecoder::default();
        let full = frame_bytes(b"{\"a\": 1}");
        decoder.push(&full[..full.len() - 3]);
        assert_eq!(decoder.next_frame(), Ok(None));
        assert_eq!(decoder.finish(), Err(FrameError::Truncated { missing: 3 }));
        // A header-only truncation is also caught.
        let mut decoder = FrameDecoder::default();
        decoder.push(&[0, 0]);
        assert_eq!(decoder.finish(), Err(FrameError::Truncated { missing: 2 }));
    }

    #[test]
    fn write_frame_refuses_oversized_payloads() {
        let mut out = Vec::new();
        let err = write_frame_limited(&mut out, &[0u8; 32], 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing must be written on refusal");
    }

    #[test]
    fn one_shot_read_frame_matches_the_decoder() {
        let bytes = frame_bytes(b"hello");
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
        let mut truncated = io::Cursor::new(frame_bytes(b"hello")[..6].to_vec());
        let err = read_frame(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mid-frame"), "{err}");
    }

    #[test]
    fn request_parsing_detects_the_protocol_version() {
        let v1 = "{\"id\": \"a\", \"scenario\": {\"catalog\": \"paper_default\", \"seed\": 1}}";
        let (proto, id, request) = parse_request(v1);
        assert_eq!(proto, Protocol::V1);
        assert_eq!(id.as_deref(), Some("a"));
        assert!(request.is_ok());

        let v2 = "{\"proto\": \"quhe-serve/v2\", \"id\": \"b\", \
                  \"scenario\": {\"catalog\": \"paper_default\", \"seed\": 1}}";
        let (proto, id, request) = parse_request(v2);
        assert_eq!(proto, Protocol::V2);
        assert_eq!(id.as_deref(), Some("b"));
        assert!(request.is_ok());

        // Unknown versions fail loudly but keep the id for the envelope.
        let (proto, id, request) =
            parse_request("{\"proto\": \"quhe-serve/v99\", \"id\": \"c\", \"scenario\": {}}");
        assert_eq!(proto, Protocol::V2);
        assert_eq!(id.as_deref(), Some("c"));
        assert!(request.unwrap_err().to_string().contains("unsupported"));

        let (_, _, request) = parse_request("not json at all");
        assert!(request.is_err());
    }

    #[test]
    fn the_v2_envelope_writer_lays_out_the_response_tree() {
        use crate::service::{CacheOutcome, ServiceConfig};
        use quhe_core::params::QuheConfig;

        let service = ServiceConfig::new(QuheConfig {
            max_outer_iterations: 1,
            max_stage3_iterations: 4,
            solver_threads: 1,
            ..QuheConfig::default()
        })
        .build();
        let request = SolveRequest::catalog("paper_default", 1);
        let cold = service.handle(&request).unwrap();
        let mut quoted = cold.clone();
        quoted.id = Some("q\"1\\\n".to_string());
        quoted.cache = CacheOutcome::Hit;
        quoted.service_wall_s = 1.5e-6;
        for response in [&cold, &quoted] {
            let tree = JsonValue::object()
                .with("proto", JsonValue::String(PROTOCOL_V2.to_string()))
                .with(
                    "id",
                    response
                        .id
                        .as_ref()
                        .map_or(JsonValue::Null, |id| JsonValue::String(id.clone())),
                )
                .with("ok", JsonValue::Bool(true))
                .with("result", response.to_json_value())
                .to_pretty_string();
            assert_eq!(ok_envelope(Protocol::V2, response), tree);
        }
        // The service's own writer splices the stored bytes into the same
        // layout.
        let hit = request.clone().with_id("h");
        let text = service.handle_v2(&hit, &hit.key()).unwrap();
        let WireReply::Ok(hit) = WireReply::from_json(&text).unwrap() else {
            panic!("a hit is a success");
        };
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(text, ok_envelope(Protocol::V2, &hit));
    }

    #[test]
    fn error_envelopes_carry_stable_kinds_and_round_trip() {
        let error = QuheError::Overloaded {
            reason: "queue full (4 pending)".to_string(),
        };
        let v2 = error_envelope(Protocol::V2, Some("r9"), &error);
        let reply = WireReply::from_json(&v2).unwrap();
        let WireReply::Err { id, kind, message } = reply else {
            panic!("error envelope parsed as success");
        };
        assert_eq!(id.as_deref(), Some("r9"));
        assert_eq!(kind, "overloaded");
        assert!(message.contains("queue full"));

        let v1 = error_envelope(Protocol::V1, Some("r9"), &error);
        let value = JsonValue::parse(&v1).unwrap();
        assert!(value
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("queue full"));
        let WireReply::Err { kind, .. } = WireReply::from_json(&v1).unwrap() else {
            panic!("legacy envelope parsed as success");
        };
        assert_eq!(kind, "error");
    }
}
