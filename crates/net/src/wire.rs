//! The length-prefixed binary wire protocol.
//!
//! Every frame is `[u32 len][payload]` (all integers little-endian),
//! where `len` counts payload bytes and is capped at
//! [`MAX_FRAME_LEN`]. The payload is `[u8 version][u8 msg][u32
//! correlation][body]`:
//!
//! - **Submit** (client → server): a full [`Request`] — deadline spec,
//!   then the input payload (sequence, seq2seq pair, or
//!   preorder-encoded tree).
//! - **Response** (server → client): the correlation id of the submit
//!   it answers plus a [`NetResponse`] — completed (timing, executed
//!   node count, decoded tokens), expired (timing), a typed rejection,
//!   or shutdown.
//!
//! Decoding is incremental ([`decode_frame`] returns `Ok(None)` on a
//! partial buffer) and total: truncated frames, oversized lengths and
//! junk bytes produce a typed [`WireError`], never a panic — adversarial
//! sizes are validated against the remaining buffer before any
//! allocation, and a tree decodes without recursion into one preorder
//! buffer, under a node cap.

use bm_core::{DeadlineSpec, Request, ServedTiming};
use bm_model::{RequestInput, TreeNode, TreeShape};

/// Protocol version carried in every frame. Each version removed a
/// submit-body field, so an older peer fails with
/// [`WireError::BadVersion`] instead of a misparsed body:
///
/// - version 2 dropped the priority byte version 1 carried after the
///   deadline spec;
/// - version 3 dropped the tenant tag (and its `u32` id) version 2
///   carried there, and response statuses 3 and 5 (inbox full, rate
///   limited) with it.
pub const PROTOCOL_VERSION: u8 = 3;

/// Upper bound on a frame's payload length. A `len` prefix above this
/// is rejected as [`WireError::Oversized`] before any buffering.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Upper bound on sequence/source token counts.
pub const MAX_TOKENS: u32 = 1 << 16;

/// Upper bound on tree nodes per request.
pub const MAX_TREE_NODES: u32 = 1 << 16;

const MSG_SUBMIT: u8 = 1;
const MSG_RESPONSE: u8 = 2;

/// Why a buffer failed to decode. Every variant is a protocol fault in
/// the peer's bytes; none abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// A complete frame's body ended before `field` could be read.
    Truncated {
        /// The field being read when the bytes ran out.
        field: &'static str,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// An enum tag byte had no defined meaning.
    UnknownTag {
        /// The field the tag belongs to.
        field: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A value was structurally valid but out of range (token counts,
    /// tree size/depth, non-UTF-8 text).
    BadValue {
        /// The offending field.
        field: &'static str,
    },
    /// The frame's version byte does not match [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// A frame's body decoded fully but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { field } => write!(f, "frame truncated reading {field}"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::UnknownTag { field, tag } => write!(f, "unknown tag {tag} for {field}"),
            WireError::BadValue { field } => write!(f, "out-of-range value for {field}"),
            WireError::BadVersion { got } => {
                write!(f, "protocol version {got}, want {PROTOCOL_VERSION}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Why the server refused a request without serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetReject {
    /// The input failed model validation; carries the message.
    Invalid(String),
    /// Every shard was at its concurrent-request cap.
    AtCapacity,
}

/// The server's answer to one submit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetResponse {
    /// Served to completion.
    Completed {
        /// Request timing on the server clock.
        timing: ServedTiming,
        /// Graph nodes actually executed.
        executed: u32,
        /// Decoded tokens in node order (`None` for non-emitting or
        /// `<eos>`-cancelled nodes).
        tokens: Vec<Option<u32>>,
    },
    /// Admitted but expired at its deadline.
    Expired {
        /// Admission-to-expiry timing on the server clock.
        timing: ServedTiming,
    },
    /// Refused without serving.
    Rejected(NetReject),
    /// The server shut down before resolving the request.
    ShutDown,
}

/// One decoded frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: submit this request.
    Submit(Request),
    /// Server → client: the outcome of the correlated submit.
    Response(NetResponse),
}

/// A decoded frame: correlation id plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-chosen id echoed back in the response frame.
    pub correlation: u32,
    /// The message body.
    pub message: Message,
}

// --------------------------------------------------------------------------
// Encoding
// --------------------------------------------------------------------------

fn frame_header(buf: &mut Vec<u8>, msg: u8, correlation: u32) -> usize {
    let len_at = buf.len();
    buf.extend_from_slice(&[0; 4]); // length backpatched below
    buf.push(PROTOCOL_VERSION);
    buf.push(msg);
    buf.extend_from_slice(&correlation.to_le_bytes());
    len_at
}

fn backpatch_len(buf: &mut [u8], len_at: usize) {
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_tree(buf: &mut Vec<u8>, t: &TreeShape) {
    for node in t.preorder() {
        match *node {
            TreeNode::Leaf(tok) => {
                buf.push(0);
                buf.extend_from_slice(&tok.to_le_bytes());
            }
            TreeNode::Internal => buf.push(1),
        }
    }
}

/// Appends one submit frame for `req` to `buf`.
pub fn encode_submit(buf: &mut Vec<u8>, correlation: u32, req: &Request) {
    let len_at = frame_header(buf, MSG_SUBMIT, correlation);
    match req.deadline {
        DeadlineSpec::Default => buf.push(0),
        DeadlineSpec::None => buf.push(1),
        DeadlineSpec::RelativeUs(d) => {
            buf.push(2);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
    match &req.input {
        RequestInput::Sequence(tokens) => {
            buf.push(0);
            buf.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
            for t in tokens {
                buf.extend_from_slice(&t.to_le_bytes());
            }
        }
        RequestInput::Pair { src, decode_len } => {
            buf.push(1);
            buf.extend_from_slice(&(src.len() as u32).to_le_bytes());
            for t in src {
                buf.extend_from_slice(&t.to_le_bytes());
            }
            buf.extend_from_slice(&(*decode_len as u32).to_le_bytes());
        }
        RequestInput::Tree(shape) => {
            buf.push(2);
            buf.extend_from_slice(&(shape.node_count() as u32).to_le_bytes());
            put_tree(buf, shape);
        }
    }
    backpatch_len(buf, len_at);
}

fn put_timing(buf: &mut Vec<u8>, t: &ServedTiming) {
    buf.extend_from_slice(&t.arrival_us.to_le_bytes());
    buf.extend_from_slice(&t.start_us.to_le_bytes());
    buf.extend_from_slice(&t.completion_us.to_le_bytes());
}

/// Appends one response frame to `buf`.
pub fn encode_response(buf: &mut Vec<u8>, correlation: u32, resp: &NetResponse) {
    let len_at = frame_header(buf, MSG_RESPONSE, correlation);
    match resp {
        NetResponse::Completed {
            timing,
            executed,
            tokens,
        } => {
            buf.push(0);
            put_timing(buf, timing);
            buf.extend_from_slice(&executed.to_le_bytes());
            buf.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
            for t in tokens {
                match t {
                    None => buf.push(0),
                    Some(tok) => {
                        buf.push(1);
                        buf.extend_from_slice(&tok.to_le_bytes());
                    }
                }
            }
        }
        NetResponse::Expired { timing } => {
            buf.push(1);
            put_timing(buf, timing);
        }
        NetResponse::Rejected(NetReject::Invalid(msg)) => {
            buf.push(2);
            let bytes = msg.as_bytes();
            let len = bytes.len().min(1024);
            buf.extend_from_slice(&(len as u32).to_le_bytes());
            buf.extend_from_slice(&bytes[..len]);
        }
        NetResponse::Rejected(NetReject::AtCapacity) => buf.push(4),
        NetResponse::ShutDown => buf.push(6),
    }
    backpatch_len(buf, len_at);
}

// --------------------------------------------------------------------------
// Decoding
// --------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let b = self.bytes(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let b = self.bytes(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Reads a `u32` count and validates it against a cap *and* the bytes
/// actually remaining (`per_item` bytes each), so a forged count can
/// neither over-allocate nor over-read.
fn checked_count(
    r: &mut Reader<'_>,
    cap: u32,
    per_item: usize,
    field: &'static str,
) -> Result<usize, WireError> {
    let n = r.u32(field)?;
    if n > cap {
        return Err(WireError::BadValue { field });
    }
    let n = n as usize;
    if r.remaining() < n.saturating_mul(per_item) {
        return Err(WireError::Truncated { field });
    }
    Ok(n)
}

fn read_tree(r: &mut Reader<'_>, declared_nodes: u32) -> Result<TreeShape, WireError> {
    if declared_nodes == 0 || declared_nodes > MAX_TREE_NODES {
        return Err(WireError::BadValue {
            field: "tree node count",
        });
    }
    // Preorder, read into one buffer: every node takes at least a byte,
    // so the frame's remaining bytes bound it too. `open` counts the
    // subtrees still to read: each node fills one, an internal node
    // opens two.
    let mut preorder = Vec::with_capacity((declared_nodes as usize).min(r.remaining()));
    let mut open = 1u32;
    while open > 0 {
        if preorder.len() == declared_nodes as usize {
            return Err(WireError::BadValue {
                field: "tree node count",
            });
        }
        match r.u8("tree node tag")? {
            0 => {
                preorder.push(TreeNode::Leaf(r.u32("leaf token")?));
                open -= 1;
            }
            1 => {
                preorder.push(TreeNode::Internal);
                open += 1;
            }
            tag => {
                return Err(WireError::UnknownTag {
                    field: "tree node tag",
                    tag,
                })
            }
        }
    }
    if preorder.len() != declared_nodes as usize {
        return Err(WireError::BadValue {
            field: "tree node count",
        });
    }
    Ok(TreeShape::from_preorder(preorder).expect("every subtree opened was read"))
}

fn read_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    let deadline = match r.u8("deadline tag")? {
        0 => DeadlineSpec::Default,
        1 => DeadlineSpec::None,
        2 => DeadlineSpec::RelativeUs(r.u64("deadline")?),
        tag => {
            return Err(WireError::UnknownTag {
                field: "deadline tag",
                tag,
            })
        }
    };
    let input = match r.u8("input tag")? {
        0 => {
            let n = checked_count(r, MAX_TOKENS, 4, "sequence length")?;
            let mut tokens = Vec::with_capacity(n);
            for _ in 0..n {
                tokens.push(r.u32("sequence token")?);
            }
            RequestInput::Sequence(tokens)
        }
        1 => {
            let n = checked_count(r, MAX_TOKENS, 4, "source length")?;
            let mut src = Vec::with_capacity(n);
            for _ in 0..n {
                src.push(r.u32("source token")?);
            }
            let decode_len = r.u32("decode length")?;
            if decode_len > MAX_TOKENS {
                return Err(WireError::BadValue {
                    field: "decode length",
                });
            }
            RequestInput::Pair {
                src,
                decode_len: decode_len as usize,
            }
        }
        2 => {
            let declared = r.u32("tree node count")?;
            RequestInput::Tree(read_tree(r, declared)?)
        }
        tag => {
            return Err(WireError::UnknownTag {
                field: "input tag",
                tag,
            })
        }
    };
    let mut req = Request::new(input);
    req.deadline = deadline;
    Ok(req)
}

fn read_timing(r: &mut Reader<'_>) -> Result<ServedTiming, WireError> {
    Ok(ServedTiming {
        arrival_us: r.u64("arrival")?,
        start_us: r.u64("start")?,
        completion_us: r.u64("completion")?,
    })
}

fn read_response(r: &mut Reader<'_>) -> Result<NetResponse, WireError> {
    match r.u8("response status")? {
        0 => {
            let timing = read_timing(r)?;
            let executed = r.u32("executed count")?;
            let n = checked_count(r, MAX_TOKENS, 1, "token count")?;
            let mut tokens = Vec::with_capacity(n);
            for _ in 0..n {
                tokens.push(match r.u8("token tag")? {
                    0 => None,
                    1 => Some(r.u32("token")?),
                    tag => {
                        return Err(WireError::UnknownTag {
                            field: "token tag",
                            tag,
                        })
                    }
                });
            }
            Ok(NetResponse::Completed {
                timing,
                executed,
                tokens,
            })
        }
        1 => Ok(NetResponse::Expired {
            timing: read_timing(r)?,
        }),
        2 => {
            let n = checked_count(r, 1024, 1, "reject message length")?;
            let bytes = r.bytes(n, "reject message")?;
            let msg = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadValue {
                    field: "reject message",
                })?
                .to_string();
            Ok(NetResponse::Rejected(NetReject::Invalid(msg)))
        }
        4 => Ok(NetResponse::Rejected(NetReject::AtCapacity)),
        6 => Ok(NetResponse::ShutDown),
        tag => Err(WireError::UnknownTag {
            field: "response status",
            tag,
        }),
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a partial frame (read more
/// bytes and retry), `Ok(Some((frame, consumed)))` on success — the
/// caller drains `consumed` bytes — and a typed [`WireError`] when the
/// bytes can never become a valid frame (close the connection).
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let mut r = Reader::new(&buf[4..total]);
    let version = r.u8("version")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let msg = r.u8("message tag")?;
    let correlation = r.u32("correlation")?;
    let message = match msg {
        MSG_SUBMIT => Message::Submit(read_request(&mut r)?),
        MSG_RESPONSE => Message::Response(read_response(&mut r)?),
        tag => {
            return Err(WireError::UnknownTag {
                field: "message tag",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(Some((
        Frame {
            correlation,
            message,
        },
        total,
    )))
}
