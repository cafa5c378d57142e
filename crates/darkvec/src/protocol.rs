//! Wire protocol of the `darkvec serve` daemon.
//!
//! Framing is minimal and explicit: every message — request or response
//! — is one *frame*, a little-endian `u32` payload length followed by
//! exactly that many payload bytes. Frames are capped at [`MAX_FRAME`]
//! so a hostile or broken client cannot make the server allocate
//! unbounded memory from a four-byte header.
//!
//! ```text
//! frame    := len:u32le payload[len]            (len <= MAX_FRAME)
//! request  := 0x01                              Ping
//!           | 0x02                              Status
//!           | 0x03 ip:u32le k:u16le n:u16le     Classify
//!                  (port:u16le proto:u8){n}
//!           | 0x04                              Shutdown
//!           | 0x05                              Alerts
//! response := 0x81                              Pong
//!           | 0x82 ready:u8 version:u64le checksum:u64le vocab:u32le
//!                  packets:u64le days:u32le retrains:u32le swaps:u32le
//!                  queries:u64le errors:u64le
//!                  [window_start:u64le window_end:u64le]
//!                                               Status
//!           | 0x83 version:u64le checksum:u64le
//!                  label_len:u16le label[..] confidence:f32le
//!                  n:u16le (ip:u32le sim:f32le){n}
//!                                               Classify
//!           | 0x84 msg_len:u16le msg[..]        Error
//!           | 0x85                              ShutdownAck
//!           | 0x86 n:u8 alert{n}                Alerts
//! alert    := lineage:u64le window_start:u64le window_end:u64le
//!             size:u32le reg_len:u8 reg[..]
//!             nports:u8 (plen:u8 port[..] share:f32le){nports}
//! ```
//!
//! The bracketed `Status` tail is a protocol-versioned extension: old
//! replies omit it and new decoders default the training window to
//! `(0, 0)`, so a v1 daemon still talks to a v2 client and vice versa.
//!
//! Decoding never panics: every length is validated against both the
//! remaining payload and a hard cap before anything is read, and any
//! malformed input comes back as a [`ProtoError`] the daemon turns into
//! a protocol-level [`Response::Error`] reply (the property tests below
//! feed arbitrary, truncated and oversized bytes through both codecs).

use bytes::{Buf, BufMut};
use darkvec_types::{Ipv4, Protocol};
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length. Large enough for any reply the
/// daemon produces (a classify reply with the maximum neighbour count is
/// well under 1 KiB), small enough that a garbage length prefix cannot
/// trigger a large allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// Cap on `(port, protocol)` pairs in one classify request.
pub const MAX_PORTS: usize = 64;

/// Cap on neighbours in one classify reply.
pub const MAX_NEIGHBORS: usize = 256;

/// Cap on alerts in one alerts reply; the daemon keeps only the newest.
pub const MAX_ALERTS: usize = 64;

/// Cap on evidence ports per alert.
pub const MAX_ALERT_PORTS: usize = 8;

/// Cap on the byte length of alert text fields (port names, regularity).
pub const MAX_ALERT_TEXT: usize = 32;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Daemon state snapshot.
    Status,
    /// Classify a sender: by its embedding row when `ip` is in the
    /// current vocabulary, else by a query vector synthesised from the
    /// services its `ports` map to. `k` is the neighbour count.
    Classify {
        /// Sender to classify.
        ip: Ipv4,
        /// Destination `(port, protocol)` pairs observed from the sender.
        ports: Vec<(u16, Protocol)>,
        /// Neighbours to vote over (and return).
        k: u16,
    },
    /// Ask the daemon to stop accepting and exit its threads.
    Shutdown,
    /// Fetch the novelty alerts raised since startup (newest-capped at
    /// [`MAX_ALERTS`]).
    Alerts,
}

/// Daemon state reported by [`Response::Status`].
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct StatusReply {
    /// True once a first model has been swapped in.
    pub ready: bool,
    /// Serving-model version (0 before the first swap).
    pub version: u64,
    /// Serving-model checksum (see `serve::ServingModel`).
    pub checksum: u64,
    /// Embedded senders in the serving model.
    pub vocab: u32,
    /// Packets ingested so far.
    pub packets: u64,
    /// Capture days completed so far.
    pub days: u32,
    /// Retrains completed.
    pub retrains: u32,
    /// Model swaps performed.
    pub swaps: u32,
    /// Classify queries answered (including error replies).
    pub queries: u64,
    /// Faults survived, as in [`crate::serve::DaemonStats::errors`].
    pub errors: u64,
    /// First capture day of the serving model's training window
    /// (protocol-versioned tail field; 0 when talking to an old daemon).
    pub window_start: u64,
    /// Last capture day of the serving model's training window (0 when
    /// talking to an old daemon or before the first swap).
    pub window_end: u64,
}

/// A classification answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassifyReply {
    /// Version of the model that answered.
    pub version: u64,
    /// Checksum of the model that answered — with `version`, the proof
    /// the reply came from a fully-built, atomically-swapped model.
    pub checksum: u64,
    /// Winning class name.
    pub label: String,
    /// Fraction of the `k` neighbour votes the winner received.
    pub confidence: f32,
    /// The neighbours that voted, by decreasing similarity.
    pub neighbors: Vec<(Ipv4, f32)>,
}

/// One novelty alert on the wire — a compact projection of
/// `lineage::NoveltyAlert` (evidence strings are clipped to
/// [`MAX_ALERT_TEXT`] bytes).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertInfo {
    /// Lineage id of the novel group.
    pub lineage: u64,
    /// First capture day of the window the group appeared in.
    pub window_start: u64,
    /// Last capture day of that window.
    pub window_end: u64,
    /// Member count.
    pub size: u32,
    /// Temporal-regularity judgement, e.g. "daily".
    pub regularity: String,
    /// Top targeted ports (name, traffic share).
    pub top_ports: Vec<(String, f32)>,
}

/// A daemon reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Status`].
    Status(StatusReply),
    /// Reply to [`Request::Classify`].
    Classify(ClassifyReply),
    /// Protocol-level error: the request was understood to be broken
    /// (bad opcode, malformed payload, no model yet, unknown sender).
    Error(String),
    /// Reply to [`Request::Shutdown`], sent before the daemon exits.
    ShutdownAck,
    /// Reply to [`Request::Alerts`].
    Alerts(Vec<AlertInfo>),
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoError {
    /// Empty payload.
    Empty,
    /// First byte is not a known opcode.
    BadOpcode(u8),
    /// Payload ended before the fields it promised.
    Truncated,
    /// A count/length field exceeds its cap.
    TooLarge(&'static str),
    /// Trailing bytes after a complete message.
    TrailingBytes,
    /// A protocol tag byte is not a known [`Protocol`].
    BadProtocol(u8),
    /// A label/message is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Empty => write!(f, "empty payload"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::TooLarge(what) => write!(f, "{what} exceeds protocol cap"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
            ProtoError::BadProtocol(tag) => write!(f, "unknown protocol tag 0x{tag:02x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

/// Why a frame could not be read off the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a new frame began.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// Transport error, including a connection dropped or timed out
    /// mid-frame (`UnexpectedEof`, `WouldBlock`/`TimedOut`).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds MAX_FRAME {MAX_FRAME}")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

/// Reads one length-prefixed frame. Distinguishes a clean close at a
/// frame boundary ([`FrameError::Closed`]) from a mid-frame disconnect
/// (an [`FrameError::Io`] with `UnexpectedEof`) so the daemon can count
/// only the latter as a fault. An oversized length prefix is rejected
/// *before* any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection dropped inside a frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len as usize > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Writes one length-prefixed frame.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME`] — the encoders below cap
/// every variable-length field, so an oversized outgoing frame is a
/// program bug, not an input condition.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME,
        "outgoing frame exceeds MAX_FRAME"
    );
    // Header and payload go out in one write: with TCP_NODELAY set a
    // separate 4-byte prefix write would ship as its own segment,
    // doubling per-message packet processing.
    let mut buf = Vec::with_capacity(4 + payload.len());
    // lint: cast-ok(asserted payload.len() <= MAX_FRAME above, and MAX_FRAME fits u32)
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Encodes a request payload (no frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    match req {
        Request::Ping => buf.put_u8(0x01),
        Request::Status => buf.put_u8(0x02),
        Request::Classify { ip, ports, k } => {
            assert!(ports.len() <= MAX_PORTS, "too many ports in request");
            buf.put_u8(0x03);
            buf.put_u32_le(ip.0);
            buf.put_u16_le(*k);
            // lint: cast-ok(asserted ports.len() <= MAX_PORTS above, which fits u16)
            buf.put_u16_le(ports.len() as u16);
            for (port, proto) in ports {
                buf.put_u16_le(*port);
                buf.put_u8(proto.tag());
            }
        }
        Request::Shutdown => buf.put_u8(0x04),
        Request::Alerts => buf.put_u8(0x05),
    }
    buf
}

/// Decodes a request payload. Never panics; every malformed input maps
/// to a [`ProtoError`].
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut buf = payload;
    if buf.remaining() == 0 {
        return Err(ProtoError::Empty);
    }
    let req = match buf.get_u8() {
        0x01 => Request::Ping,
        0x02 => Request::Status,
        0x03 => {
            if buf.remaining() < 4 + 2 + 2 {
                return Err(ProtoError::Truncated);
            }
            let ip = Ipv4(buf.get_u32_le());
            let k = buf.get_u16_le();
            let n = buf.get_u16_le() as usize;
            if n > MAX_PORTS {
                return Err(ProtoError::TooLarge("port count"));
            }
            if buf.remaining() < n * 3 {
                return Err(ProtoError::Truncated);
            }
            let mut ports = Vec::with_capacity(n);
            for _ in 0..n {
                let port = buf.get_u16_le();
                let tag = buf.get_u8();
                let proto = Protocol::from_tag(tag).ok_or(ProtoError::BadProtocol(tag))?;
                ports.push((port, proto));
            }
            Request::Classify { ip, ports, k }
        }
        0x04 => Request::Shutdown,
        0x05 => Request::Alerts,
        op => return Err(ProtoError::BadOpcode(op)),
    };
    if buf.remaining() > 0 {
        return Err(ProtoError::TrailingBytes);
    }
    Ok(req)
}

/// Encodes a response payload (no frame header).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match resp {
        Response::Pong => buf.put_u8(0x81),
        Response::Status(s) => {
            buf.put_u8(0x82);
            buf.put_u8(s.ready as u8); // lint: cast-ok(bool as u8 is 0 or 1 by language definition)
            buf.put_u64_le(s.version);
            buf.put_u64_le(s.checksum);
            buf.put_u32_le(s.vocab);
            buf.put_u64_le(s.packets);
            buf.put_u32_le(s.days);
            buf.put_u32_le(s.retrains);
            buf.put_u32_le(s.swaps);
            buf.put_u64_le(s.queries);
            buf.put_u64_le(s.errors);
            // Versioned tail: decoders accept payloads both with and
            // without these 16 bytes (absent ⇒ window (0, 0)), so replies
            // from a pre-tail daemon still parse.
            buf.put_u64_le(s.window_start);
            buf.put_u64_le(s.window_end);
        }
        Response::Classify(c) => {
            assert!(c.neighbors.len() <= MAX_NEIGHBORS, "too many neighbours");
            assert!(c.label.len() <= u16::MAX as usize, "label too long");
            buf.put_u8(0x83);
            buf.put_u64_le(c.version);
            buf.put_u64_le(c.checksum);
            // lint: cast-ok(asserted label.len() <= u16::MAX above)
            buf.put_u16_le(c.label.len() as u16);
            buf.put_slice(c.label.as_bytes());
            buf.put_f32_le(c.confidence);
            // lint: cast-ok(asserted neighbors.len() <= MAX_NEIGHBORS above, which fits u16)
            buf.put_u16_le(c.neighbors.len() as u16);
            for (ip, sim) in &c.neighbors {
                buf.put_u32_le(ip.0);
                buf.put_f32_le(*sim);
            }
        }
        Response::Error(msg) => {
            // Truncate rather than die: error text is advisory.
            let msg = &msg.as_bytes()[..msg.len().min(1024)];
            buf.put_u8(0x84);
            // lint: cast-ok(msg truncated to at most 1024 bytes on the line above)
            buf.put_u16_le(msg.len() as u16);
            buf.put_slice(msg);
        }
        Response::ShutdownAck => buf.put_u8(0x85),
        Response::Alerts(alerts) => {
            // Truncate rather than die: the daemon bounds its alert buffer
            // already, so clipping here only defends against misuse.
            let alerts = &alerts[..alerts.len().min(MAX_ALERTS)];
            buf.put_u8(0x86);
            // lint: cast-ok(sliced to at most MAX_ALERTS above, which fits u8)
            buf.put_u8(alerts.len() as u8);
            for a in alerts {
                buf.put_u64_le(a.lineage);
                buf.put_u64_le(a.window_start);
                buf.put_u64_le(a.window_end);
                buf.put_u32_le(a.size);
                let reg = clip(&a.regularity, MAX_ALERT_TEXT);
                // lint: cast-ok(clip bounds reg to MAX_ALERT_TEXT bytes, which fits u8)
                buf.put_u8(reg.len() as u8);
                buf.put_slice(reg.as_bytes());
                let ports = &a.top_ports[..a.top_ports.len().min(MAX_ALERT_PORTS)];
                // lint: cast-ok(sliced to at most MAX_ALERT_PORTS above, which fits u8)
                buf.put_u8(ports.len() as u8);
                for (name, share) in ports {
                    let name = clip(name, MAX_ALERT_TEXT);
                    // lint: cast-ok(clip bounds name to MAX_ALERT_TEXT bytes, which fits u8)
                    buf.put_u8(name.len() as u8);
                    buf.put_slice(name.as_bytes());
                    buf.put_f32_le(*share);
                }
            }
        }
    }
    buf
}

/// Clips a string to at most `max` bytes without splitting a UTF-8
/// character.
fn clip(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Decodes a response payload. Never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut buf = payload;
    if buf.remaining() == 0 {
        return Err(ProtoError::Empty);
    }
    let resp = match buf.get_u8() {
        0x81 => Response::Pong,
        0x82 => {
            if buf.remaining() < 1 + 8 + 8 + 4 + 8 + 4 + 4 + 4 + 8 + 8 {
                return Err(ProtoError::Truncated);
            }
            let ready = buf.get_u8() != 0;
            let version = buf.get_u64_le();
            let checksum = buf.get_u64_le();
            let vocab = buf.get_u32_le();
            let packets = buf.get_u64_le();
            let days = buf.get_u32_le();
            let retrains = buf.get_u32_le();
            let swaps = buf.get_u32_le();
            let queries = buf.get_u64_le();
            let errors = buf.get_u64_le();
            // Versioned tail (see the encoder): absent in old payloads.
            let (window_start, window_end) = if buf.remaining() >= 16 {
                (buf.get_u64_le(), buf.get_u64_le())
            } else {
                (0, 0)
            };
            Response::Status(StatusReply {
                ready,
                version,
                checksum,
                vocab,
                packets,
                days,
                retrains,
                swaps,
                queries,
                errors,
                window_start,
                window_end,
            })
        }
        0x83 => {
            if buf.remaining() < 8 + 8 + 2 {
                return Err(ProtoError::Truncated);
            }
            let version = buf.get_u64_le();
            let checksum = buf.get_u64_le();
            let label_len = buf.get_u16_le() as usize;
            if buf.remaining() < label_len {
                return Err(ProtoError::Truncated);
            }
            let label = String::from_utf8(buf.chunk()[..label_len].to_vec())
                .map_err(|_| ProtoError::BadUtf8)?;
            buf.advance(label_len);
            if buf.remaining() < 4 + 2 {
                return Err(ProtoError::Truncated);
            }
            let confidence = buf.get_f32_le();
            let n = buf.get_u16_le() as usize;
            if n > MAX_NEIGHBORS {
                return Err(ProtoError::TooLarge("neighbour count"));
            }
            if buf.remaining() < n * 8 {
                return Err(ProtoError::Truncated);
            }
            let mut neighbors = Vec::with_capacity(n);
            for _ in 0..n {
                let ip = Ipv4(buf.get_u32_le());
                let sim = buf.get_f32_le();
                neighbors.push((ip, sim));
            }
            Response::Classify(ClassifyReply {
                version,
                checksum,
                label,
                confidence,
                neighbors,
            })
        }
        0x84 => {
            if buf.remaining() < 2 {
                return Err(ProtoError::Truncated);
            }
            let len = buf.get_u16_le() as usize;
            if len > 1024 {
                return Err(ProtoError::TooLarge("error message"));
            }
            if buf.remaining() < len {
                return Err(ProtoError::Truncated);
            }
            let msg =
                String::from_utf8(buf.chunk()[..len].to_vec()).map_err(|_| ProtoError::BadUtf8)?;
            buf.advance(len);
            Response::Error(msg)
        }
        0x85 => Response::ShutdownAck,
        0x86 => {
            if buf.remaining() < 1 {
                return Err(ProtoError::Truncated);
            }
            let n = buf.get_u8() as usize;
            if n > MAX_ALERTS {
                return Err(ProtoError::TooLarge("alert count"));
            }
            let mut alerts = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 8 + 8 + 8 + 4 + 1 {
                    return Err(ProtoError::Truncated);
                }
                let lineage = buf.get_u64_le();
                let window_start = buf.get_u64_le();
                let window_end = buf.get_u64_le();
                let size = buf.get_u32_le();
                let reg_len = buf.get_u8() as usize;
                if reg_len > MAX_ALERT_TEXT {
                    return Err(ProtoError::TooLarge("regularity text"));
                }
                if buf.remaining() < reg_len {
                    return Err(ProtoError::Truncated);
                }
                let regularity = String::from_utf8(buf.chunk()[..reg_len].to_vec())
                    .map_err(|_| ProtoError::BadUtf8)?;
                buf.advance(reg_len);
                if buf.remaining() < 1 {
                    return Err(ProtoError::Truncated);
                }
                let nports = buf.get_u8() as usize;
                if nports > MAX_ALERT_PORTS {
                    return Err(ProtoError::TooLarge("alert port count"));
                }
                let mut top_ports = Vec::with_capacity(nports);
                for _ in 0..nports {
                    if buf.remaining() < 1 {
                        return Err(ProtoError::Truncated);
                    }
                    let plen = buf.get_u8() as usize;
                    if plen > MAX_ALERT_TEXT {
                        return Err(ProtoError::TooLarge("alert port text"));
                    }
                    if buf.remaining() < plen + 4 {
                        return Err(ProtoError::Truncated);
                    }
                    let name = String::from_utf8(buf.chunk()[..plen].to_vec())
                        .map_err(|_| ProtoError::BadUtf8)?;
                    buf.advance(plen);
                    let share = buf.get_f32_le();
                    top_ports.push((name, share));
                }
                alerts.push(AlertInfo {
                    lineage,
                    window_start,
                    window_end,
                    size,
                    regularity,
                    top_ports,
                });
            }
            Response::Alerts(alerts)
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    if buf.remaining() > 0 {
        return Err(ProtoError::TrailingBytes);
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_protocol() -> impl Strategy<Value = Protocol> {
        prop_oneof![
            Just(Protocol::Tcp),
            Just(Protocol::Udp),
            Just(Protocol::Icmp)
        ]
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            Just(Request::Ping),
            Just(Request::Status),
            Just(Request::Shutdown),
            (
                any::<u32>(),
                prop::collection::vec((any::<u16>(), arb_protocol()), 0..MAX_PORTS),
                any::<u16>(),
            )
                .prop_map(|(ip, ports, k)| Request::Classify {
                    ip: Ipv4(ip),
                    ports,
                    k,
                }),
        ]
    }

    fn arb_status() -> impl Strategy<Value = StatusReply> {
        (
            (any::<bool>(), any::<u64>(), any::<u64>(), any::<u32>()),
            (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(
                    (ready, version, checksum, vocab),
                    (packets, days, retrains, swaps),
                    (q, e, ws, we),
                )| {
                    StatusReply {
                        ready,
                        version,
                        checksum,
                        vocab,
                        packets,
                        days,
                        retrains,
                        swaps,
                        queries: q,
                        errors: e,
                        window_start: ws,
                        window_end: we,
                    }
                },
            )
    }

    /// Lowercase ASCII strings (the vendored proptest has no regex
    /// strategies).
    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(97u8..=122, 0..max).prop_map(|v| String::from_utf8(v).expect("ascii"))
    }

    fn arb_alert() -> impl Strategy<Value = AlertInfo> {
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
            arb_text(MAX_ALERT_TEXT),
            prop::collection::vec((arb_text(MAX_ALERT_TEXT), any::<u32>()), 0..MAX_ALERT_PORTS),
        )
            .prop_map(|((lineage, ws, we, size), regularity, ports)| AlertInfo {
                lineage,
                window_start: ws,
                window_end: we,
                size,
                regularity,
                top_ports: ports
                    .into_iter()
                    // From raw bits so NaN/inf share bytes are covered.
                    .map(|(name, bits)| (name, f32::from_bits(bits)))
                    .collect(),
            })
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            Just(Response::Pong),
            Just(Response::ShutdownAck),
            arb_status().prop_map(Response::Status),
            arb_text(64).prop_map(Response::Error),
            prop::collection::vec(arb_alert(), 0..5).prop_map(Response::Alerts),
            (
                any::<u64>(),
                any::<u64>(),
                arb_text(16),
                any::<u32>(),
                prop::collection::vec((any::<u32>(), any::<u32>()), 0..16),
            )
                .prop_map(|(version, checksum, label, conf_bits, neigh)| {
                    Response::Classify(ClassifyReply {
                        version,
                        checksum,
                        label,
                        // From raw bits so NaN/inf payload bytes are covered.
                        confidence: f32::from_bits(conf_bits),
                        neighbors: neigh
                            .into_iter()
                            .map(|(ip, sim)| (Ipv4(ip), f32::from_bits(sim)))
                            .collect(),
                    })
                }),
        ]
    }

    proptest! {
        // Round trips are compared on re-encoded bytes, not values, so
        // NaN floats (payload bytes like any other) don't break equality.
        #[test]
        fn request_round_trip(req in arb_request()) {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode own encoding");
            prop_assert_eq!(encode_request(&back), bytes);
        }

        #[test]
        fn response_round_trip(resp in arb_response()) {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).expect("decode own encoding");
            prop_assert_eq!(encode_response(&back), bytes);
        }

        #[test]
        fn truncated_requests_error_without_panic(req in arb_request()) {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                // A strict prefix is Err(Truncated/Empty) — except for a
                // classify whose port list shrinks to a shorter valid
                // message, which the trailing-bytes check rules out here
                // because the *length* field promises more.
                prop_assert!(decode_request(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn truncated_responses_error_without_panic(resp in arb_response()) {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                // One legal cut exists: a Status reply minus its 16-byte
                // versioned window tail IS the old wire format and decodes
                // (that compatibility is asserted separately below).
                if matches!(resp, Response::Status(_)) && cut == bytes.len() - 16 {
                    continue;
                }
                prop_assert!(decode_response(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }

        #[test]
        fn frame_round_trip(payload in prop::collection::vec(any::<u8>(), 0..512)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut r = &wire[..];
            prop_assert_eq!(read_frame(&mut r).unwrap(), payload);
            prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        }

        #[test]
        fn truncated_frames_are_io_errors(payload in prop::collection::vec(any::<u8>(), 1..128)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            for cut in 1..wire.len() {
                let mut r = &wire[..cut];
                prop_assert!(matches!(
                    read_frame(&mut r),
                    Err(FrameError::Io(_)) | Err(FrameError::Oversized(_))
                ));
            }
        }

        #[test]
        fn oversized_length_prefix_is_rejected(extra in 1u32..u32::MAX - MAX_FRAME as u32) {
            let len = MAX_FRAME as u32 + extra;
            let wire = len.to_le_bytes();
            let mut r = &wire[..];
            prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized(l)) if l == len));
        }
    }

    /// A pre-tail Status payload (no window fields) must still decode,
    /// with the training window defaulting to `(0, 0)` — the promise that
    /// keeps old daemons and new clients interoperable.
    #[test]
    fn status_without_window_tail_decodes_as_old_format() {
        let full = StatusReply {
            ready: true,
            version: 7,
            checksum: 0xDEAD_BEEF,
            vocab: 123,
            packets: 456,
            days: 9,
            retrains: 3,
            swaps: 3,
            queries: 42,
            errors: 1,
            window_start: 5,
            window_end: 11,
        };
        let bytes = encode_response(&Response::Status(full));
        let old = &bytes[..bytes.len() - 16];
        match decode_response(old).expect("old format must decode") {
            Response::Status(s) => {
                assert_eq!(s.version, 7);
                assert_eq!(s.queries, 42);
                assert_eq!((s.window_start, s.window_end), (0, 0));
            }
            other => panic!("expected Status, got {other:?}"),
        }
        // A partial tail (1..15 leftover bytes) is still an error.
        for cut in 1..16 {
            assert!(
                decode_response(&bytes[..bytes.len() - cut]).is_err(),
                "partial tail of {} bytes must not decode",
                16 - cut
            );
        }
        // The full new format round-trips the window.
        match decode_response(&bytes).expect("new format") {
            Response::Status(s) => assert_eq!((s.window_start, s.window_end), (5, 11)),
            other => panic!("expected Status, got {other:?}"),
        }
    }

    /// Alert text fields are clipped to [`MAX_ALERT_TEXT`] bytes on a
    /// char boundary — a multi-byte char straddling the limit must not
    /// split into invalid UTF-8.
    #[test]
    fn alert_text_clips_on_char_boundaries() {
        let alert = AlertInfo {
            lineage: 1,
            window_start: 0,
            window_end: 1,
            size: 5,
            // 31 ASCII bytes then a 2-byte char straddling the 32-byte cap.
            regularity: format!("{}é", "x".repeat(31)),
            top_ports: vec![("y".repeat(100), 0.5)],
        };
        let bytes = encode_response(&Response::Alerts(vec![alert]));
        match decode_response(&bytes).expect("clipped alert must decode") {
            Response::Alerts(alerts) => {
                assert_eq!(alerts[0].regularity, "x".repeat(31));
                assert_eq!(alerts[0].top_ports[0].0, "y".repeat(32));
            }
            other => panic!("expected Alerts, got {other:?}"),
        }
    }

    #[test]
    fn close_at_boundary_vs_mid_frame() {
        let mut r: &[u8] = &[];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        let mut r: &[u8] = &[3, 0]; // half a length prefix
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }
}
