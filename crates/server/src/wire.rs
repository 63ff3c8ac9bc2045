//! The check-service wire protocol.
//!
//! One connection = one byte stream in each direction, carrying:
//!
//! 1. a **hello**: 8 magic bytes (`SLXWIRE\0`) plus one protocol-version
//!    byte, written by *both* sides before anything else (each side
//!    writes its hello, then reads and validates the peer's — no
//!    read-before-write deadlock);
//! 2. a sequence of **frames**: a 4-byte little-endian body length
//!    followed by the body — one tag byte plus the frame's
//!    [`StateCodec`] payload.
//!
//! The payloads reuse the engine's persistence codec (LEB128 varints,
//! self-delimiting records) instead of inventing a second binary format,
//! and inherit its discipline:
//!
//! - **decode totality** — malformed, truncated, or oversized input
//!   yields a [`WireError`], never a panic and never an unbounded read.
//!   The length prefix is validated against [`MAX_FRAME`] *before* any
//!   body byte is read, so a hostile length cannot make the server
//!   allocate or block on gigabytes;
//! - **versioning** — [`PROTOCOL_VERSION`] is negotiated in the hello
//!   and bumped on any frame-layout change; a decoder never sees bytes
//!   from a layout it does not know (see `slx_engine::codec`'s
//!   persistence-and-compatibility notes).
//!
//! Clean EOF *between* frames is a normal hangup ([`read_frame`] returns
//! `Ok(None)`); EOF *inside* a frame is a truncation error.

use std::io::{Read, Write};

use slx_engine::StateCodec;

/// First bytes on the wire in both directions.
pub const MAGIC: &[u8; 8] = b"SLXWIRE\0";

/// Version byte following [`MAGIC`]. Bump on **any** change to the
/// frame set, tag values, or payload layouts; peers refuse mismatches.
pub const PROTOCOL_VERSION: u8 = 1;

/// Largest accepted frame body. Requests and verdicts are tiny; this
/// bound exists so a corrupt or hostile length prefix fails fast.
pub const MAX_FRAME: usize = 1 << 20;

/// Everything that can go wrong on the wire. `Io` covers transport
/// failures; the rest are protocol violations by the peer.
#[derive(Debug)]
pub enum WireError {
    /// Transport read/write failure (includes EOF inside a frame).
    Io(std::io::Error),
    /// The peer's hello did not start with [`MAGIC`].
    BadMagic,
    /// The peer speaks a different [`PROTOCOL_VERSION`].
    Version(u8),
    /// A frame length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The advertised body length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// A frame body failed to decode (bad tag, truncated payload,
    /// trailing bytes, invalid UTF-8, ...).
    Malformed(&'static str),
    /// The peer reported a request-level failure (unknown scenario,
    /// invalid request id, cancelled run, worker panic).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadMagic => write!(f, "peer did not speak the SLXWIRE protocol"),
            WireError::Version(v) => write!(
                f,
                "peer speaks protocol version {v}, this build speaks {PROTOCOL_VERSION}"
            ),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A check request: which scenario to run and under which knobs. The
/// `request_id` names the server-side checkpoint directory, so
/// resubmitting the same id after a server crash (or a cancel) *resumes*
/// the run from its last committed image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRequest {
    /// Caller-chosen identity: `[A-Za-z0-9._-]`, no leading `.`, at most
    /// 64 bytes. Doubles as the checkpoint directory name.
    pub request_id: String,
    /// Registered scenario name (see `ScenarioRegistry`).
    pub scenario: String,
    /// Exploration depth bound, scenario-interpreted.
    pub depth: u64,
    /// Optional cap on expanded states (`Checker::with_budget`).
    pub config_budget: Option<u64>,
    /// Optional frontier memory budget in bytes; `None` (and `Some(0)`)
    /// turn spilling off.
    pub mem_budget: Option<u64>,
    /// Stream a progress frame every this many BFS levels (0 = treat
    /// as 1).
    pub progress_every: u64,
}

impl StateCodec for CheckRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request_id.encode(out);
        self.scenario.encode(out);
        self.depth.encode(out);
        self.config_budget.encode(out);
        self.mem_budget.encode(out);
        self.progress_every.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CheckRequest {
            request_id: String::decode(input)?,
            scenario: String::decode(input)?,
            depth: u64::decode(input)?,
            config_budget: Option::decode(input)?,
            mem_budget: Option::decode(input)?,
            progress_every: u64::decode(input)?,
        })
    }
}

/// A periodic progress snapshot: the lifetime [`ExploreStats`] counters
/// a client needs to render a live rate, taken at a BFS level boundary
/// (immediately after the level's checkpoint commit, so everything
/// reported here is also durable).
///
/// [`ExploreStats`]: slx_engine::ExploreStats
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressFrame {
    /// The request this snapshot belongs to.
    pub request_id: String,
    /// BFS level about to be expanded.
    pub depth: u64,
    /// Lifetime distinct states expanded.
    pub configs: u64,
    /// Lifetime successors generated.
    pub transitions: u64,
    /// Lifetime dedup hits.
    pub dedup_hits: u64,
    /// Peak frontier width so far.
    pub peak_frontier: u64,
    /// Lifetime wall-clock, microseconds (accumulates across resumes).
    pub elapsed_micros: u64,
    /// Checkpoints committed over the run's lifetime.
    pub checkpoints_written: u64,
    /// Level this run resumed from, if it did.
    pub resumed_from_depth: Option<u64>,
}

impl StateCodec for ProgressFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request_id.encode(out);
        self.depth.encode(out);
        self.configs.encode(out);
        self.transitions.encode(out);
        self.dedup_hits.encode(out);
        self.peak_frontier.encode(out);
        self.elapsed_micros.encode(out);
        self.checkpoints_written.encode(out);
        self.resumed_from_depth.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ProgressFrame {
            request_id: String::decode(input)?,
            depth: u64::decode(input)?,
            configs: u64::decode(input)?,
            transitions: u64::decode(input)?,
            dedup_hits: u64::decode(input)?,
            peak_frontier: u64::decode(input)?,
            elapsed_micros: u64::decode(input)?,
            checkpoints_written: u64::decode(input)?,
            resumed_from_depth: Option::decode(input)?,
        })
    }
}

/// The terminal frame of a successful request. The counter fields are
/// exactly the ones the engine's resume contract pins bit-identically,
/// so a crashed-and-resumed request's verdict frame matches an
/// uninterrupted one's — the CI probe diffs them byte for byte.
/// `elapsed_micros` and `resumed_from_depth` legitimately differ across
/// a resume and are excluded from that comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFrame {
    /// The request this verdict concludes.
    pub request_id: String,
    /// Whether the checked property held everywhere explored.
    pub holds: bool,
    /// Number of violating findings.
    pub findings: u64,
    /// Distinct states expanded.
    pub configs: u64,
    /// Successors generated.
    pub transitions: u64,
    /// Dedup hits.
    pub dedup_hits: u64,
    /// Peak frontier width.
    pub peak_frontier: u64,
    /// Whether any bound cut the exploration short.
    pub truncated: bool,
    /// Lifetime wall-clock, microseconds.
    pub elapsed_micros: u64,
    /// Level this run resumed from, if it did.
    pub resumed_from_depth: Option<u64>,
}

impl StateCodec for VerdictFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request_id.encode(out);
        self.holds.encode(out);
        self.findings.encode(out);
        self.configs.encode(out);
        self.transitions.encode(out);
        self.dedup_hits.encode(out);
        self.peak_frontier.encode(out);
        self.truncated.encode(out);
        self.elapsed_micros.encode(out);
        self.resumed_from_depth.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(VerdictFrame {
            request_id: String::decode(input)?,
            holds: bool::decode(input)?,
            findings: u64::decode(input)?,
            configs: u64::decode(input)?,
            transitions: u64::decode(input)?,
            dedup_hits: u64::decode(input)?,
            peak_frontier: u64::decode(input)?,
            truncated: bool::decode(input)?,
            elapsed_micros: u64::decode(input)?,
            resumed_from_depth: Option::decode(input)?,
        })
    }
}

/// Everything that crosses the wire after the hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: schedule a check.
    Submit(CheckRequest),
    /// Client → server: cancel an in-flight or queued request. The run
    /// stops at its next level boundary, *after* that boundary's
    /// checkpoint commit — resubmitting the id resumes from there.
    Cancel {
        /// The id to cancel.
        request_id: String,
    },
    /// Server → client: periodic progress snapshot.
    Progress(ProgressFrame),
    /// Server → client: terminal success frame.
    Verdict(VerdictFrame),
    /// Server → client: terminal failure frame (unknown scenario, bad
    /// request id, cancelled run, worker panic).
    Error {
        /// The id the failure concerns (empty if unattributable).
        request_id: String,
        /// Human-readable cause.
        message: String,
    },
}

const TAG_SUBMIT: u8 = 1;
const TAG_CANCEL: u8 = 2;
const TAG_PROGRESS: u8 = 3;
const TAG_VERDICT: u8 = 4;
const TAG_ERROR: u8 = 5;

impl Frame {
    /// Encodes the frame *body* (tag + payload), without the length
    /// prefix — [`write_frame`] adds that.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Submit(req) => {
                out.push(TAG_SUBMIT);
                req.encode(&mut out);
            }
            Frame::Cancel { request_id } => {
                out.push(TAG_CANCEL);
                request_id.encode(&mut out);
            }
            Frame::Progress(p) => {
                out.push(TAG_PROGRESS);
                p.encode(&mut out);
            }
            Frame::Verdict(v) => {
                out.push(TAG_VERDICT);
                v.encode(&mut out);
            }
            Frame::Error {
                request_id,
                message,
            } => {
                out.push(TAG_ERROR);
                request_id.encode(&mut out);
                message.encode(&mut out);
            }
        }
        out
    }

    /// Decodes a frame body. Total: unknown tags, truncated payloads,
    /// and trailing bytes are all `Err`, never panics. A body must be
    /// consumed *exactly* — trailing bytes mean the peer and this build
    /// disagree about the layout, which is a refusal, not a shrug.
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut input = body;
        let tag = *input.first().ok_or(WireError::Malformed("empty body"))?;
        input = &input[1..];
        let frame = match tag {
            TAG_SUBMIT => Frame::Submit(
                CheckRequest::decode(&mut input).ok_or(WireError::Malformed("submit payload"))?,
            ),
            TAG_CANCEL => Frame::Cancel {
                request_id: String::decode(&mut input)
                    .ok_or(WireError::Malformed("cancel payload"))?,
            },
            TAG_PROGRESS => Frame::Progress(
                ProgressFrame::decode(&mut input)
                    .ok_or(WireError::Malformed("progress payload"))?,
            ),
            TAG_VERDICT => Frame::Verdict(
                VerdictFrame::decode(&mut input).ok_or(WireError::Malformed("verdict payload"))?,
            ),
            TAG_ERROR => Frame::Error {
                request_id: String::decode(&mut input)
                    .ok_or(WireError::Malformed("error payload"))?,
                message: String::decode(&mut input).ok_or(WireError::Malformed("error payload"))?,
            },
            _ => return Err(WireError::Malformed("unknown frame tag")),
        };
        if !input.is_empty() {
            return Err(WireError::Malformed("trailing bytes after frame payload"));
        }
        Ok(frame)
    }
}

/// Writes this side's hello. Call before any read — both sides write
/// first, then validate the peer's.
pub fn write_hello(w: &mut impl Write) -> Result<(), WireError> {
    w.write_all(MAGIC)?;
    w.write_all(&[PROTOCOL_VERSION])?;
    w.flush()?;
    Ok(())
}

/// Reads and validates the peer's hello.
pub fn read_hello(r: &mut impl Read) -> Result<(), WireError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != PROTOCOL_VERSION {
        return Err(WireError::Version(version[0]));
    }
    Ok(())
}

/// Writes one length-prefixed frame and flushes.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let body = frame.encode_body();
    assert!(body.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    let len = u32::try_from(body.len()).expect("MAX_FRAME fits u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is clean EOF at a frame boundary (the
/// peer hung up); EOF inside a frame, an oversized length prefix, or a
/// body that fails to decode are errors. The oversized check happens
/// before a single body byte is read.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len_bytes[1..])?,
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Frame::decode_body(&body).map(Some)
}

/// Validates a caller-chosen request id for use as a checkpoint
/// directory name: non-empty, at most 64 bytes, `[A-Za-z0-9._-]` only,
/// no leading `.` (which would hide the directory and admits `..`).
pub fn validate_request_id(id: &str) -> Result<(), WireError> {
    if id.is_empty() || id.len() > 64 {
        return Err(WireError::Malformed(
            "request id must be 1..=64 bytes of [A-Za-z0-9._-]",
        ));
    }
    if id.starts_with('.') {
        return Err(WireError::Malformed("request id must not start with '.'"));
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(WireError::Malformed(
            "request id must be 1..=64 bytes of [A-Za-z0-9._-]",
        ));
    }
    Ok(())
}
