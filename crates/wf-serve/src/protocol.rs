//! The wire protocol: a length-prefixed binary framing with a strict,
//! allocation-bounded codec.
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 payload-length (BE)] [payload]
//! payload = [u8 version] [u64 request-id (BE)] [u8 tag] [body]
//! ```
//!
//! The request id is chosen by the client and echoed verbatim in the reply,
//! so a caller can account for every in-flight query even when replies are
//! retried or arrive after a reconnect.  The codec is *strict*: truncated,
//! oversized, wrong-version and garbage frames decode to a typed
//! [`WireError`] — never a panic — and no decode allocates more memory than
//! the (already length-checked) frame it was handed.

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::metrics::StatsSnapshot;

/// The protocol version this build speaks.  A frame carrying any other
/// version byte is rejected with [`WireError::BadVersion`] before its body
/// is looked at.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default ceiling on a single frame's payload length.  Frames declaring a
/// larger payload are rejected *before* the payload buffer is allocated,
/// bounding what a hostile or corrupted peer can make the server allocate.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Smallest legal payload: version byte + request id + tag.
pub const MIN_PAYLOAD_LEN: u32 = 10;

/// A request frame, as decoded from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered on the connection's reader thread so it
    /// stays responsive even when the work queue is saturated.
    Ping,
    /// Top-k similarity search for a resident workflow id, with an optional
    /// per-request deadline (0 = server default).
    Search {
        query: String,
        k: u32,
        deadline_ms: u32,
    },
    /// Add (or replace) a workflow, shipped as the JSON encoding of
    /// [`wf_model::Workflow`].
    Add { workflow_json: String },
    /// Remove a workflow by id.
    Remove { id: String },
    /// Server metrics snapshot; answered on the reader thread.
    Stats,
    /// Resident workflow count; answered on the reader thread.
    Len,
}

/// One search hit on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub id: String,
    pub score: f64,
}

/// A response frame, as decoded from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    /// Search results.  `answered[s]` is true when shard `s` ran its scan
    /// to completion; `degraded` is true when any shard did not (deadline
    /// fired or a fault vetoed the visit) — the hits are then the exact
    /// top-k over the candidates that *were* scored.
    Hits {
        degraded: bool,
        answered: Vec<bool>,
        hits: Vec<Hit>,
    },
    /// Workflow accepted; `shard` is the shard it now lives on.
    Added {
        shard: u32,
    },
    /// Removal outcome; `existed` is false when the id was not resident.
    Removed {
        existed: bool,
    },
    Stats(StatsSnapshot),
    Len {
        len: u64,
    },
    /// A typed error reply.  Only [`ServeError::Overloaded`] is retryable.
    Error(ServeError),
}

/// Typed server-side error replies.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The query id is not resident in the corpus.
    NotFound { id: String },
    /// Admission control shed the request: the work queue was full.
    /// Retry after roughly `retry_after_ms` — the server's hint, derived
    /// from its queue drain rate configuration.
    Overloaded { retry_after_ms: u32 },
    /// The request was well-framed but semantically invalid (bad workflow
    /// JSON, undecodable body).  Never retryable.
    BadRequest { detail: String },
    /// The server failed internally while handling the request.
    Internal { detail: String },
}

impl ServeError {
    /// True for errors a client may transparently retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NotFound { id } => write!(f, "workflow {id:?} is not resident"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Internal { detail } => write!(f, "internal server error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything that can go wrong decoding a frame.  Strictly typed so tests
/// (and clients) can distinguish a truncated frame from a version mismatch
/// from garbage — and so the decoder provably never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The body ended before a declared field; `needed` bytes were
    /// required, `have` remained.
    Truncated { needed: usize, have: usize },
    /// The frame declared a payload larger than the configured ceiling.
    Oversized { len: u32, max: u32 },
    /// The version byte was not [`PROTOCOL_VERSION`].
    BadVersion { found: u8 },
    /// The tag byte named no known request/response variant.
    UnknownTag { tag: u8 },
    /// The body decoded completely but `extra` bytes trailed it.
    TrailingBytes { extra: usize },
    /// A structurally invalid field (bad UTF-8, non-boolean flag, unknown
    /// error code, payload shorter than the fixed header).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::BadVersion { found } => write!(
                f,
                "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
            ),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message body")
            }
            WireError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const TAG_PING: u8 = 0x01;
const TAG_SEARCH: u8 = 0x02;
const TAG_ADD: u8 = 0x03;
const TAG_REMOVE: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_LEN: u8 = 0x06;

const TAG_PONG: u8 = 0x81;
const TAG_HITS: u8 = 0x82;
const TAG_ADDED: u8 = 0x83;
const TAG_REMOVED: u8 = 0x84;
const TAG_STATS_REPLY: u8 = 0x85;
const TAG_LEN_REPLY: u8 = 0x86;
const TAG_ERROR: u8 = 0xE0;

const ERR_NOT_FOUND: u8 = 0x01;
const ERR_OVERLOADED: u8 = 0x02;
const ERR_BAD_REQUEST: u8 = 0x03;
const ERR_INTERNAL: u8 = 0x04;

struct FrameBuilder {
    buf: Vec<u8>,
}

impl FrameBuilder {
    /// Starts a frame: reserves the length prefix and writes the header.
    fn new(request_id: u64, tag: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0, 0, 0, 0]);
        buf.push(PROTOCOL_VERSION);
        buf.extend_from_slice(&request_id.to_be_bytes());
        buf.push(tag);
        FrameBuilder { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Backfills the length prefix and returns the finished frame.
    fn finish(mut self) -> Vec<u8> {
        let payload_len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&payload_len.to_be_bytes());
        self.buf
    }
}

/// Encodes a request into a complete frame (length prefix included).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut b;
    match req {
        Request::Ping => b = FrameBuilder::new(request_id, TAG_PING),
        Request::Search {
            query,
            k,
            deadline_ms,
        } => {
            b = FrameBuilder::new(request_id, TAG_SEARCH);
            b.str(query);
            b.u32(*k);
            b.u32(*deadline_ms);
        }
        Request::Add { workflow_json } => {
            b = FrameBuilder::new(request_id, TAG_ADD);
            b.str(workflow_json);
        }
        Request::Remove { id } => {
            b = FrameBuilder::new(request_id, TAG_REMOVE);
            b.str(id);
        }
        Request::Stats => b = FrameBuilder::new(request_id, TAG_STATS),
        Request::Len => b = FrameBuilder::new(request_id, TAG_LEN),
    }
    b.finish()
}

/// Encodes a response into a complete frame (length prefix included).
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let mut b;
    match resp {
        Response::Pong => b = FrameBuilder::new(request_id, TAG_PONG),
        Response::Hits {
            degraded,
            answered,
            hits,
        } => {
            b = FrameBuilder::new(request_id, TAG_HITS);
            b.bool(*degraded);
            b.u16(answered.len() as u16);
            for &a in answered {
                b.bool(a);
            }
            b.u32(hits.len() as u32);
            for hit in hits {
                b.str(&hit.id);
                b.f64(hit.score);
            }
        }
        Response::Added { shard } => {
            b = FrameBuilder::new(request_id, TAG_ADDED);
            b.u32(*shard);
        }
        Response::Removed { existed } => {
            b = FrameBuilder::new(request_id, TAG_REMOVED);
            b.bool(*existed);
        }
        Response::Stats(stats) => {
            b = FrameBuilder::new(request_id, TAG_STATS_REPLY);
            for v in stats.as_fields() {
                b.u64(v);
            }
        }
        Response::Len { len } => {
            b = FrameBuilder::new(request_id, TAG_LEN_REPLY);
            b.u64(*len);
        }
        Response::Error(err) => {
            b = FrameBuilder::new(request_id, TAG_ERROR);
            match err {
                ServeError::NotFound { id } => {
                    b.u8(ERR_NOT_FOUND);
                    b.str(id);
                }
                ServeError::Overloaded { retry_after_ms } => {
                    b.u8(ERR_OVERLOADED);
                    b.u32(*retry_after_ms);
                }
                ServeError::BadRequest { detail } => {
                    b.u8(ERR_BAD_REQUEST);
                    b.str(detail);
                }
                ServeError::Internal { detail } => {
                    b.u8(ERR_INTERNAL);
                    b.str(detail);
                }
            }
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked reader over a frame payload.  Every accessor returns
/// [`WireError::Truncated`] instead of slicing out of range, and string
/// lengths are validated against the *remaining* bytes before any
/// allocation, so a hostile length field cannot trigger an outsized `Vec`.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "boolean field holds {other}, expected 0 or 1"
            ))),
        }
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(WireError::Malformed("string field is not UTF-8".to_owned())),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Validates the fixed header and returns `(request_id, tag, body cursor)`.
fn decode_header(payload: &[u8]) -> Result<(u64, u8, Cursor<'_>), WireError> {
    if (payload.len() as u64) < u64::from(MIN_PAYLOAD_LEN) {
        return Err(WireError::Malformed(format!(
            "payload of {} bytes is shorter than the {MIN_PAYLOAD_LEN}-byte header",
            payload.len()
        )));
    }
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let request_id = c.u64()?;
    let tag = c.u8()?;
    Ok((request_id, tag, c))
}

/// Best-effort request id extraction from a frame that may fail full
/// decoding — used by the server to address a typed error reply at the
/// request that caused it.  `None` when even the header is unreadable.
pub fn peek_request_id(payload: &[u8]) -> Option<u64> {
    if payload.len() < MIN_PAYLOAD_LEN as usize || payload[0] != PROTOCOL_VERSION {
        return None;
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&payload[1..9]);
    Some(u64::from_be_bytes(raw))
}

/// Decodes a request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let (request_id, tag, mut c) = decode_header(payload)?;
    let req = match tag {
        TAG_PING => Request::Ping,
        TAG_SEARCH => {
            let query = c.str()?;
            let k = c.u32()?;
            let deadline_ms = c.u32()?;
            Request::Search {
                query,
                k,
                deadline_ms,
            }
        }
        TAG_ADD => Request::Add {
            workflow_json: c.str()?,
        },
        TAG_REMOVE => Request::Remove { id: c.str()? },
        TAG_STATS => Request::Stats,
        TAG_LEN => Request::Len,
        tag => return Err(WireError::UnknownTag { tag }),
    };
    c.finish()?;
    Ok((request_id, req))
}

/// Decodes a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let (request_id, tag, mut c) = decode_header(payload)?;
    let resp = match tag {
        TAG_PONG => Response::Pong,
        TAG_HITS => {
            let degraded = c.bool()?;
            let shard_count = c.u16()? as usize;
            // One byte per shard flag must still be present — checked
            // before the Vec is sized, so a hostile count cannot force an
            // allocation beyond the frame.
            if c.remaining() < shard_count {
                return Err(WireError::Truncated {
                    needed: shard_count,
                    have: c.remaining(),
                });
            }
            let mut answered = Vec::with_capacity(shard_count);
            for _ in 0..shard_count {
                answered.push(c.bool()?);
            }
            let hit_count = c.u32()? as usize;
            // Each hit is at least 12 bytes (4-byte id length + 8-byte
            // score); reject impossible counts before allocating.
            if c.remaining() / 12 < hit_count {
                return Err(WireError::Truncated {
                    needed: hit_count.saturating_mul(12),
                    have: c.remaining(),
                });
            }
            let mut hits = Vec::with_capacity(hit_count);
            for _ in 0..hit_count {
                let id = c.str()?;
                let score = c.f64()?;
                hits.push(Hit { id, score });
            }
            Response::Hits {
                degraded,
                answered,
                hits,
            }
        }
        TAG_ADDED => Response::Added { shard: c.u32()? },
        TAG_REMOVED => Response::Removed { existed: c.bool()? },
        TAG_STATS_REPLY => {
            let mut fields = [0u64; StatsSnapshot::FIELD_COUNT];
            for slot in &mut fields {
                *slot = c.u64()?;
            }
            Response::Stats(StatsSnapshot::from_fields(&fields))
        }
        TAG_LEN_REPLY => Response::Len { len: c.u64()? },
        TAG_ERROR => {
            let code = c.u8()?;
            let err = match code {
                ERR_NOT_FOUND => ServeError::NotFound { id: c.str()? },
                ERR_OVERLOADED => ServeError::Overloaded {
                    retry_after_ms: c.u32()?,
                },
                ERR_BAD_REQUEST => ServeError::BadRequest { detail: c.str()? },
                ERR_INTERNAL => ServeError::Internal { detail: c.str()? },
                code => {
                    return Err(WireError::Malformed(format!(
                        "unknown error code {code:#04x}"
                    )))
                }
            };
            Response::Error(err)
        }
        tag => return Err(WireError::UnknownTag { tag }),
    };
    c.finish()?;
    Ok((request_id, resp))
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Transport-level failure while reading a frame off a socket.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The socket failed (reset, mid-frame EOF, stalled past the frame
    /// deadline).  The connection is unusable afterwards.
    Io(std::io::Error),
    /// The framing itself was invalid (oversized or impossibly short
    /// declared length).  The stream position is lost; close the
    /// connection after replying.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed by peer"),
            FrameError::Io(e) => write!(f, "socket error while reading frame: {e}"),
            FrameError::Wire(e) => write!(f, "invalid framing: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
            FrameError::Closed => None,
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Fills `buf` from the stream, tolerating read-timeout ticks until
/// `deadline`.  `idle_ok` makes a timeout *before the first byte* return
/// `Ok(false)` (an idle poll tick) instead of an error.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    started: Instant,
    deadline: Duration,
    idle_ok: bool,
) -> Result<bool, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && idle_ok {
                    return Err(FrameError::Closed);
                }
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection dropped mid-frame",
                )));
            }
            Ok(n) => {
                got += n;
                // A slow-loris peer defeats the read timeout by trickling
                // one byte per interval — so the frame deadline must also
                // be enforced on the making-progress path.
                if got < buf.len() && started.elapsed() >= deadline {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "frame not completed within the frame deadline",
                    )));
                }
            }
            Err(e) if is_timeout(&e) => {
                if got == 0 && idle_ok {
                    return Ok(false);
                }
                // Mid-frame stall: keep polling until the per-frame
                // deadline, then give up on the connection.  This bounds
                // how long a slow-loris writer can hold a reader thread.
                if started.elapsed() >= deadline {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "frame not completed within the frame deadline",
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame's payload off the socket.  Returns `Ok(None)` when the
/// socket's read timeout elapsed before any byte arrived (an idle tick —
/// callers use it to poll a shutdown flag).  Once the first header byte
/// arrives the whole frame must land within `frame_deadline`, which bounds
/// slow-loris senders.
pub fn read_frame(
    stream: &mut TcpStream,
    max_len: u32,
    frame_deadline: Duration,
) -> Result<Option<Vec<u8>>, FrameError> {
    let started = Instant::now();
    let mut header = [0u8; 4];
    if !read_full(stream, &mut header, started, frame_deadline, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header);
    if len < MIN_PAYLOAD_LEN {
        return Err(FrameError::Wire(WireError::Malformed(format!(
            "declared payload of {len} bytes is shorter than the {MIN_PAYLOAD_LEN}-byte header"
        ))));
    }
    if len > max_len {
        return Err(FrameError::Wire(WireError::Oversized { len, max: max_len }));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(stream, &mut payload, started, frame_deadline, false)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let frame = encode_request(42, &req);
        let (len, payload) = frame.split_at(4);
        assert_eq!(
            u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize,
            payload.len()
        );
        let (rid, back) = decode_request(payload).expect("roundtrip");
        assert_eq!(rid, 42);
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Search {
            query: "wf-007".to_owned(),
            k: 10,
            deadline_ms: 250,
        });
        roundtrip_request(Request::Add {
            workflow_json: "{\"id\":\"x\"}".to_owned(),
        });
        roundtrip_request(Request::Remove {
            id: "wf-1".to_owned(),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Len);
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response::Hits {
            degraded: true,
            answered: vec![true, false, true],
            hits: vec![
                Hit {
                    id: "a".to_owned(),
                    score: 0.75,
                },
                Hit {
                    id: "b".to_owned(),
                    score: 0.5,
                },
            ],
        };
        let frame = encode_response(7, &resp);
        let (rid, back) = decode_response(&frame[4..]).expect("roundtrip");
        assert_eq!(rid, 7);
        assert_eq!(back, resp);
    }

    #[test]
    fn truncated_body_is_typed() {
        let frame = encode_request(
            1,
            &Request::Remove {
                id: "abcdef".to_owned(),
            },
        );
        let payload = &frame[4..frame.len() - 3];
        match decode_request(payload) {
            Err(WireError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut frame = encode_request(1, &Request::Ping);
        frame[4] = 9;
        assert_eq!(
            decode_request(&frame[4..]),
            Err(WireError::BadVersion { found: 9 })
        );
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut frame = encode_request(1, &Request::Ping);
        frame.push(0xFF);
        match decode_request(&frame[4..]) {
            Err(WireError::TrailingBytes { extra: 1 }) => {}
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut frame = encode_request(1, &Request::Ping);
        frame[13] = 0x7F;
        assert_eq!(
            decode_request(&frame[4..]),
            Err(WireError::UnknownTag { tag: 0x7F })
        );
    }

    #[test]
    fn hostile_hit_count_does_not_allocate() {
        // A Hits frame declaring u32::MAX hits with an empty body must be
        // rejected by the pre-allocation count check.
        let mut b = FrameBuilder::new(3, TAG_HITS);
        b.bool(false);
        b.u16(0);
        b.u32(u32::MAX);
        let frame = b.finish();
        match decode_response(&frame[4..]) {
            Err(WireError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn peek_request_id_reads_header_only() {
        let frame = encode_request(0xDEAD_BEEF, &Request::Stats);
        assert_eq!(peek_request_id(&frame[4..]), Some(0xDEAD_BEEF));
        assert_eq!(peek_request_id(&frame[4..8]), None);
    }

    #[test]
    fn errors_display() {
        let err: Box<dyn std::error::Error> = Box::new(WireError::UnknownTag { tag: 2 });
        assert!(err.to_string().contains("unknown message tag"));
        let err: Box<dyn std::error::Error> =
            Box::new(ServeError::Overloaded { retry_after_ms: 25 });
        assert!(err.to_string().contains("retry after 25ms"));
    }
}
