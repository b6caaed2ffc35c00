//! WIRE-v2: the versioned, length-prefixed binary protocol the likelihood
//! service (`crates/server`) speaks over TCP and Unix sockets.
//!
//! Every frame is
//!
//! ```text
//! ┌───────────┬─────────┬────────────┬───────────────┬───────────────┬─────────┐
//! │ magic     │ version │ frame type │ session id    │ payload len   │ payload │
//! │ "BGLW" ×4 │ u8 = 2  │ u8         │ u64 LE        │ u32 LE        │ …       │
//! └───────────┴─────────┴────────────┴───────────────┴───────────────┴─────────┘
//! ```
//!
//! (18 header bytes, then `payload len` payload bytes). All integers are
//! little-endian; every `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]), so a likelihood computed remotely is **bit-identical**
//! to the same session evaluated in-process — the differential suites assert
//! exactly that.
//!
//! A `Submit` payload is the lane byte, then the [`SessionRequest`] fields
//! in declaration order. Two fields have their own layout:
//!
//! * **Tip states.** Each tip vector is a width tag, a `u32` count, then the
//!   states. Tag 1: one byte per state, `0xFF` standing for
//!   [`GAP_STATE`]; the encoder uses it whenever every state is below 255
//!   or a gap, which shrinks nucleotide, amino-acid and codon tips 4×.
//!   Tag 4: one `u32` per state, for anything else — the library bounds
//!   no state count, and an out-of-range state must reach the worker to
//!   fail there with the same typed error as in-process.
//! * **Deadline.** A presence byte, then (if 1) the per-request budget in
//!   nanoseconds as a saturating `u64`, so zero and sub-microsecond
//!   budgets arrive as sent.
//!
//! The decoder is total: truncated, oversized, bad-magic, wrong-version
//! (including every WIRE-v1 frame), and malformed frames all come back as a
//! typed [`WireError`], never a panic — a listener must survive a port
//! scanner. Claimed lengths are validated against the bytes actually present
//! *before* any allocation, so a frame that lies about its size cannot
//! allocate gigabytes; [`read_frame`] grows its buffer only as payload bytes
//! arrive.

use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

use crate::api::BufferId;
use crate::deadline::Deadline;
use crate::error::{BeagleError, DeviceErrorKind};
use crate::ops::Operation;
use crate::pool::{Lane, SessionRequest};
use crate::GAP_STATE;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"BGLW";
/// Protocol version this module encodes and the only one it accepts.
pub const VERSION: u8 = 2;
/// Fixed header size (magic + version + type + session id + payload len).
pub const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 4;
/// Hard cap on a frame's payload. A header claiming more is rejected with
/// [`WireError::Oversized`] before anything is read or allocated.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Nesting bound when decoding recursive [`BeagleError::ChildCreationFailed`]
/// chains: deeper frames are [`WireError::Malformed`], not a stack overflow.
const MAX_ERROR_DEPTH: usize = 8;

/// Initial payload buffer of [`read_frame`]; larger payloads grow it as
/// their bytes arrive.
const READ_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a frame could not be decoded (or moved over a socket).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// The frame-type byte maps to no known [`FrameType`].
    UnknownFrameType(u8),
    /// The buffer (or stream) ended before the bytes the frame claimed.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The header claimed a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// Structurally invalid payload (bad tag, bad UTF-8, trailing bytes…).
    Malformed(&'static str),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An OS-level socket failure, stringly (keeps the type `Clone + Eq`).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: payload {len} exceeds cap {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Frame types and bodies.
// ---------------------------------------------------------------------------

/// The frame-type byte. Client→server: `Submit`, `StatsRequest`, `Drain`.
/// Server→client: everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// A likelihood session to evaluate.
    Submit = 1,
    /// The session's root log-likelihood (bit pattern).
    Result = 2,
    /// The server refused the session without queueing it.
    Busy = 3,
    /// The session ran and failed; carries the typed [`BeagleError`].
    Error = 4,
    /// Ask for a [`FrameType::Stats`] snapshot.
    StatsRequest = 5,
    /// JSON snapshot: server counters + pool stats + kernels + health.
    Stats = 6,
    /// Ask the server to drain: finish in-flight work, then shut down.
    Drain = 7,
    /// Drain finished; reports whether every queued session completed.
    DrainAck = 8,
}

impl FrameType {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        Ok(match byte {
            1 => FrameType::Submit,
            2 => FrameType::Result,
            3 => FrameType::Busy,
            4 => FrameType::Error,
            5 => FrameType::StatsRequest,
            6 => FrameType::Stats,
            7 => FrameType::Drain,
            8 => FrameType::DrainAck,
            other => return Err(WireError::UnknownFrameType(other)),
        })
    }
}

/// Why the server answered [`Frame::Busy`] instead of queueing a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum BusyReason {
    /// This client already has its maximum number of sessions in flight.
    ClientCap = 0,
    /// The pool's bounded queue was full ([`crate::pool::PoolError::Full`]).
    PoolFull = 1,
    /// The server is draining and accepts no new work.
    Draining = 2,
}

impl BusyReason {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        Ok(match byte {
            0 => BusyReason::ClientCap,
            1 => BusyReason::PoolFull,
            2 => BusyReason::Draining,
            _ => return Err(WireError::Malformed("unknown busy reason")),
        })
    }
}

impl fmt::Display for BusyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BusyReason::ClientCap => "per-client in-flight cap reached",
            BusyReason::PoolFull => "pool queue full",
            BusyReason::Draining => "server draining",
        })
    }
}

/// A decoded frame body. The session id travels in the header (see
/// [`read_frame`] / [`write_frame`]), not here.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Evaluate `session` on `lane`.
    Submit {
        /// Scheduling lane for the embedded pool.
        lane: Lane,
        /// The self-contained session (its optional per-request
        /// [`SessionRequest::deadline`] rides along). Boxed so the frame
        /// enum stays small for the common response variants.
        session: Box<SessionRequest>,
    },
    /// Root log-likelihood, bit-exact.
    Result(f64),
    /// Session refused; retry later (or elsewhere).
    Busy(BusyReason),
    /// Session failed with a typed library error.
    Error(BeagleError),
    /// Request a stats snapshot.
    StatsRequest,
    /// Stats snapshot as a JSON document.
    Stats(String),
    /// Request a graceful drain.
    Drain,
    /// Drain completed. `drained` is false if the drain deadline expired
    /// with sessions still queued (their clients got [`Frame::Error`]s).
    DrainAck {
        /// Did every accepted session finish?
        drained: bool,
    },
}

impl Frame {
    /// The type byte this body encodes as.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Submit { .. } => FrameType::Submit,
            Frame::Result(_) => FrameType::Result,
            Frame::Busy(_) => FrameType::Busy,
            Frame::Error(_) => FrameType::Error,
            Frame::StatsRequest => FrameType::StatsRequest,
            Frame::Stats(_) => FrameType::Stats,
            Frame::Drain => FrameType::Drain,
            Frame::DrainAck { .. } => FrameType::DrainAck,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Tip-vector width tag: one byte per state, [`NARROW_GAP`] for a gap.
const TIP_U8: u8 = 1;
/// Tip-vector width tag: one little-endian `u32` per state.
const TIP_U32: u8 = 4;
/// The one-byte code for [`GAP_STATE`] in a narrowed tip vector. State 255
/// forces the four-byte form, so the code is unambiguous.
const NARROW_GAP: u8 = 0xFF;
/// Bytes per encoded operation: dest + scale flag + scale + 4 indices.
const OP_BYTES: usize = 8 + 1 + 8 + 4 * 8;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append `n` bytes to `buf` and hand them back for bulk filling.
fn grow(buf: &mut Vec<u8>, n: usize) -> &mut [u8] {
    let start = buf.len();
    buf.resize(start + n, 0);
    &mut buf[start..]
}

fn put_vec_f64(buf: &mut Vec<u8>, v: &[f64]) {
    put_u32(buf, v.len() as u32);
    for (dst, x) in grow(buf, 8 * v.len()).chunks_exact_mut(8).zip(v) {
        dst.copy_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// One tip vector: width tag, count, states. The width follows from the
/// content: one byte per state when every state is below 255 or is the gap,
/// else four, so an out-of-range state still reaches the worker intact and
/// fails there exactly as it would in-process.
fn put_tip(buf: &mut Vec<u8>, tip: &[u32]) {
    let start = buf.len();
    buf.push(TIP_U8);
    put_u32(buf, tip.len() as u32);
    // Narrow in one pass. `x + 1` wraps the gap to 0, so a bit set above
    // the low byte marks a state that does not fit; truncation maps the
    // gap to `NARROW_GAP` (both asserted below).
    let mut wide = 0;
    for (dst, &x) in grow(buf, tip.len()).iter_mut().zip(tip) {
        wide |= x.wrapping_add(1) & !0xFF;
        *dst = x as u8;
    }
    if wide != 0 {
        buf.truncate(start);
        buf.push(TIP_U32);
        put_u32(buf, tip.len() as u32);
        for (dst, x) in grow(buf, 4 * tip.len()).chunks_exact_mut(4).zip(tip) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

const _: () = assert!(GAP_STATE as u8 == NARROW_GAP && GAP_STATE.wrapping_add(1) == 0);

/// Encoded size of `s`: exact when every tip narrows to one byte per state
/// (nucleotide, amino-acid and codon data); four-byte tips grow the buffer.
fn session_len_hint(s: &SessionRequest) -> usize {
    let vec_f64 = |v: &[f64]| 4 + 8 * v.len();
    let tips: usize = s.tip_states.iter().map(|t| 1 + 4 + t.len()).sum();
    let eigen = s
        .eigen
        .as_ref()
        .map_or(0, |(u, v, w)| vec_f64(u) + vec_f64(v) + vec_f64(w));
    4 + tips
        + vec_f64(&s.pattern_weights)
        + vec_f64(&s.category_rates)
        + vec_f64(&s.category_weights)
        + vec_f64(&s.frequencies)
        + 1
        + eigen
        + 4
        + 16 * s.matrices.len()
        + 4
        + OP_BYTES * s.operations.len()
        + 8
        + 1
        + 1
        + s.deadline.map_or(0, |_| 8)
}

fn encode_session(buf: &mut Vec<u8>, s: &SessionRequest) {
    put_u32(buf, s.tip_states.len() as u32);
    for tip in &s.tip_states {
        put_tip(buf, tip);
    }
    put_vec_f64(buf, &s.pattern_weights);
    put_vec_f64(buf, &s.category_rates);
    put_vec_f64(buf, &s.category_weights);
    put_vec_f64(buf, &s.frequencies);
    match &s.eigen {
        Some((vectors, inverse, values)) => {
            buf.push(1);
            put_vec_f64(buf, vectors);
            put_vec_f64(buf, inverse);
            put_vec_f64(buf, values);
        }
        None => buf.push(0),
    }
    put_u32(buf, s.matrices.len() as u32);
    for &(index, length) in &s.matrices {
        put_u64(buf, index as u64);
        put_f64(buf, length);
    }
    put_u32(buf, s.operations.len() as u32);
    for op in &s.operations {
        put_u64(buf, op.destination as u64);
        match op.dest_scale_write {
            Some(scale) => {
                buf.push(1);
                put_u64(buf, scale as u64);
            }
            None => {
                buf.push(0);
                put_u64(buf, 0);
            }
        }
        put_u64(buf, op.child1 as u64);
        put_u64(buf, op.child1_matrix as u64);
        put_u64(buf, op.child2 as u64);
        put_u64(buf, op.child2_matrix as u64);
    }
    put_u64(buf, s.root.0 as u64);
    buf.push(s.scaled as u8);
    // Deadline: presence byte, then the budget in nanoseconds (saturating),
    // so a zero or sub-microsecond budget arrives as sent.
    match s.deadline {
        Some(d) => {
            buf.push(1);
            put_u64(
                buf,
                u64::try_from(d.budget().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        None => buf.push(0),
    }
}

fn encode_error(buf: &mut Vec<u8>, e: &BeagleError) {
    match e {
        BeagleError::OutOfRange { what, index, limit } => {
            buf.push(0);
            put_str(buf, what);
            put_u64(buf, *index as u64);
            put_u64(buf, *limit as u64);
        }
        BeagleError::DimensionMismatch {
            what,
            expected,
            got,
        } => {
            buf.push(1);
            put_str(buf, what);
            put_u64(buf, *expected as u64);
            put_u64(buf, *got as u64);
        }
        BeagleError::InvalidConfiguration(msg) => {
            buf.push(2);
            put_str(buf, msg);
        }
        BeagleError::NoImplementationFound => buf.push(3),
        BeagleError::Unsupported(msg) => {
            buf.push(4);
            put_str(buf, msg);
        }
        BeagleError::NumericalFailure(msg) => {
            buf.push(5);
            put_str(buf, msg);
        }
        BeagleError::Device {
            kind,
            transient,
            device,
        } => {
            buf.push(6);
            buf.push(match kind {
                DeviceErrorKind::LaunchFailed => 0,
                DeviceErrorKind::AllocationFailed => 1,
                DeviceErrorKind::DeviceLost => 2,
                DeviceErrorKind::MemoryCorruption => 3,
            });
            buf.push(*transient as u8);
            put_str(buf, device);
        }
        BeagleError::ResourceExhausted { what } => {
            buf.push(7);
            put_str(buf, what);
        }
        BeagleError::Timeout { what } => {
            buf.push(8);
            put_str(buf, what);
        }
        BeagleError::CheckpointCorrupt(msg) => {
            buf.push(9);
            put_str(buf, msg);
        }
        BeagleError::CheckpointIo(msg) => {
            buf.push(10);
            put_str(buf, msg);
        }
        BeagleError::ChildCreationFailed {
            child,
            device,
            source,
        } => {
            buf.push(11);
            put_u64(buf, *child as u64);
            put_str(buf, device);
            encode_error(buf, source);
        }
    }
}

/// Encode one frame into a buffer reserved for `payload_hint` payload
/// bytes: the header, the payload `body` writes, then the payload length
/// patched into the header. One buffer, no payload copy.
fn encode_with(
    session_id: u64,
    frame_type: FrameType,
    payload_hint: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_hint);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(frame_type as u8);
    put_u64(&mut buf, session_id);
    put_u32(&mut buf, 0);
    body(&mut buf);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encode one complete frame (header + payload) into a byte vector.
pub fn encode_frame(session_id: u64, frame: &Frame) -> Vec<u8> {
    let payload_hint = match frame {
        Frame::Submit { session, .. } => 1 + session_len_hint(session),
        _ => 64,
    };
    encode_with(
        session_id,
        frame.frame_type(),
        payload_hint,
        |buf| match frame {
            Frame::Submit { lane, session } => put_submit(buf, *lane, session),
            Frame::Result(lnl) => put_f64(buf, *lnl),
            Frame::Busy(reason) => buf.push(*reason as u8),
            Frame::Error(e) => encode_error(buf, e),
            Frame::StatsRequest | Frame::Drain => {}
            Frame::Stats(json) => put_str(buf, json),
            Frame::DrainAck { drained } => buf.push(*drained as u8),
        },
    )
}

/// Encode a `Submit` frame from a borrowed session: the same bytes
/// [`encode_frame`] writes for `Frame::Submit { lane, session }`, without
/// first copying the session into a box.
pub fn encode_submit(session_id: u64, lane: Lane, session: &SessionRequest) -> Vec<u8> {
    let payload_hint = 1 + session_len_hint(session);
    encode_with(session_id, FrameType::Submit, payload_hint, |buf| {
        put_submit(buf, lane, session)
    })
}

fn put_submit(buf: &mut Vec<u8>, lane: Lane, session: &SessionRequest) {
    buf.push(match lane {
        Lane::Interactive => 0,
        Lane::Batch => 1,
    });
    encode_session(buf, session);
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice. Every read
/// validates availability first, so decoding cannot panic; length-prefixed
/// collections validate `count × element size ≤ remaining` *before*
/// allocating.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
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
            _ => Err(WireError::Malformed("boolean byte not 0 or 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(le(self.take(4)?)))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(le(self.take(8)?)))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed("index exceeds usize"))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length prefix for a collection of `elem_size`-byte elements, checked
    /// against the bytes actually left in the buffer.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        let bytes = count.saturating_mul(elem_size);
        self.need(bytes)?;
        Ok(count)
    }

    /// The bytes of a length-prefixed collection of `elem_size`-byte
    /// elements, bounds-checked once.
    fn counted(&mut self, elem_size: usize) -> Result<&'a [u8], WireError> {
        let count = self.u32()? as usize;
        self.take(count.saturating_mul(elem_size))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let bytes = self.counted(1)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string not UTF-8"))
    }

    /// A length-prefixed `f64` vector: one bounds check, then a bulk decode.
    fn vec_f64(&mut self) -> Result<Vec<f64>, WireError> {
        Ok(self
            .counted(8)?
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(le(b))))
            .collect())
    }

    /// One tip vector (width tag, count, states), checked once and decoded
    /// in bulk. In the one-byte form `b + 1 - 1` is `b`, except that
    /// [`NARROW_GAP`] wraps to 0 and then to [`GAP_STATE`].
    fn tip(&mut self) -> Result<Vec<u32>, WireError> {
        let width = match self.u8()? {
            TIP_U8 => 1,
            TIP_U32 => 4,
            _ => return Err(WireError::Malformed("unknown tip width")),
        };
        let bytes = self.counted(width)?;
        Ok(if width == 1 {
            bytes
                .iter()
                .map(|&b| u32::from(b.wrapping_add(1)).wrapping_sub(1))
                .collect()
        } else {
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(le(b)))
                .collect()
        })
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// A fixed-size array from an exactly-`N`-byte slice (a [`Cursor::take`]
/// result or a `chunks_exact(N)` chunk, so the lengths always match).
fn le<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0; N];
    a.copy_from_slice(b);
    a
}

/// Remote errors arrive with owned strings where the in-process error type
/// holds `&'static str` diagnostics. The strings are tiny (field names like
/// "partials buffer") and error frames are rare, so leaking them restores
/// the exact in-process type; [`MAX_PAYLOAD`] bounds what a hostile peer
/// could make us retain per frame.
fn leak_str(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn decode_error(c: &mut Cursor<'_>, depth: usize) -> Result<BeagleError, WireError> {
    if depth > MAX_ERROR_DEPTH {
        return Err(WireError::Malformed("error chain nested too deep"));
    }
    Ok(match c.u8()? {
        0 => BeagleError::OutOfRange {
            what: leak_str(c.string()?),
            index: c.usize()?,
            limit: c.usize()?,
        },
        1 => BeagleError::DimensionMismatch {
            what: leak_str(c.string()?),
            expected: c.usize()?,
            got: c.usize()?,
        },
        2 => BeagleError::InvalidConfiguration(c.string()?),
        3 => BeagleError::NoImplementationFound,
        4 => BeagleError::Unsupported(c.string()?),
        5 => BeagleError::NumericalFailure(c.string()?),
        6 => {
            let kind = match c.u8()? {
                0 => DeviceErrorKind::LaunchFailed,
                1 => DeviceErrorKind::AllocationFailed,
                2 => DeviceErrorKind::DeviceLost,
                3 => DeviceErrorKind::MemoryCorruption,
                _ => return Err(WireError::Malformed("unknown device error kind")),
            };
            BeagleError::Device {
                kind,
                transient: c.bool()?,
                device: c.string()?,
            }
        }
        7 => BeagleError::ResourceExhausted { what: c.string()? },
        8 => BeagleError::Timeout { what: c.string()? },
        9 => BeagleError::CheckpointCorrupt(c.string()?),
        10 => BeagleError::CheckpointIo(c.string()?),
        11 => BeagleError::ChildCreationFailed {
            child: c.usize()?,
            device: c.string()?,
            source: Box::new(decode_error(c, depth + 1)?),
        },
        _ => return Err(WireError::Malformed("unknown error tag")),
    })
}

fn decode_session(c: &mut Cursor<'_>) -> Result<SessionRequest, WireError> {
    // Tip vectors: at least a width tag and a 4-byte length each.
    let tips = c.len_prefix(5)?;
    let tip_states = (0..tips).map(|_| c.tip()).collect::<Result<Vec<_>, _>>()?;
    let pattern_weights = c.vec_f64()?;
    let category_rates = c.vec_f64()?;
    let category_weights = c.vec_f64()?;
    let frequencies = c.vec_f64()?;
    let eigen = if c.bool()? {
        Some((c.vec_f64()?, c.vec_f64()?, c.vec_f64()?))
    } else {
        None
    };
    let n_matrices = c.len_prefix(16)?;
    let matrices = (0..n_matrices)
        .map(|_| Ok((c.usize()?, c.f64()?)))
        .collect::<Result<Vec<_>, WireError>>()?;
    let n_ops = c.len_prefix(OP_BYTES)?;
    let operations = (0..n_ops)
        .map(|_| {
            let destination = c.usize()?;
            let has_scale = c.bool()?;
            let scale = c.usize()?;
            Ok(Operation {
                destination,
                dest_scale_write: has_scale.then_some(scale),
                child1: c.usize()?,
                child1_matrix: c.usize()?,
                child2: c.usize()?,
                child2_matrix: c.usize()?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let root = BufferId(c.usize()?);
    let scaled = c.bool()?;
    let deadline = if c.bool()? {
        Some(Deadline::new(Duration::from_nanos(c.u64()?)))
    } else {
        None
    };
    Ok(SessionRequest {
        tip_states,
        pattern_weights,
        category_rates,
        category_weights,
        frequencies,
        eigen,
        matrices,
        operations,
        root,
        scaled,
        deadline,
    })
}

fn decode_payload(frame_type: FrameType, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(payload);
    let frame = match frame_type {
        FrameType::Submit => {
            let lane = match c.u8()? {
                0 => Lane::Interactive,
                1 => Lane::Batch,
                _ => return Err(WireError::Malformed("unknown lane")),
            };
            Frame::Submit {
                lane,
                session: Box::new(decode_session(&mut c)?),
            }
        }
        FrameType::Result => Frame::Result(c.f64()?),
        FrameType::Busy => Frame::Busy(BusyReason::from_u8(c.u8()?)?),
        FrameType::Error => Frame::Error(decode_error(&mut c, 0)?),
        FrameType::StatsRequest => Frame::StatsRequest,
        FrameType::Stats => Frame::Stats(c.string()?),
        FrameType::Drain => Frame::Drain,
        FrameType::DrainAck => Frame::DrainAck { drained: c.bool()? },
    };
    c.finish()?;
    Ok(frame)
}

/// Parse and validate the 18-byte header. Returns the frame type, session
/// id, and claimed payload length.
pub fn decode_header(header: &[u8]) -> Result<(FrameType, u64, u32), WireError> {
    let mut c = Cursor::new(header);
    let magic = c.take(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame_type = FrameType::from_u8(c.u8()?)?;
    let session_id = c.u64()?;
    let len = c.u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((frame_type, session_id, len))
}

/// Decode one complete frame from the front of `bytes`. Returns the session
/// id, the frame, and the number of bytes consumed (so concatenated frames
/// decode sequentially). Never panics, whatever the input.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let (frame_type, session_id, len) = decode_header(&bytes[..HEADER_LEN])?;
    let total = HEADER_LEN + len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let frame = decode_payload(frame_type, &bytes[HEADER_LEN..total])?;
    Ok((session_id, frame, total))
}

// ---------------------------------------------------------------------------
// Stream I/O.
// ---------------------------------------------------------------------------

fn io_err(e: std::io::Error) -> WireError {
    WireError::Io(e.to_string())
}

/// Read a frame header. A clean EOF before its first byte is a closed
/// connection; one mid-header is truncation.
fn read_header(reader: &mut impl Read, buf: &mut [u8; HEADER_LEN]) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated {
                        needed: buf.len(),
                        got: filled,
                    }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(())
}

/// Read one frame from a stream. [`WireError::Closed`] means the peer hung
/// up cleanly between frames; every other error is a real protocol or
/// socket failure.
pub fn read_frame(reader: &mut impl Read) -> Result<(u64, Frame), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_header(reader, &mut header)?;
    let (frame_type, session_id, len) = decode_header(&header)?;
    // Grow the buffer as payload bytes arrive instead of zero-filling the
    // claimed length up front: a header that lies about its size then pins
    // at most `READ_CHUNK` bytes, not `MAX_PAYLOAD`.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    reader
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(io_err)?;
    if payload.len() < len {
        return Err(WireError::Truncated {
            needed: len,
            got: payload.len(),
        });
    }
    Ok((session_id, decode_payload(frame_type, &payload)?))
}

/// Write one frame to a stream and flush it.
pub fn write_frame(
    writer: &mut impl Write,
    session_id: u64,
    frame: &Frame,
) -> Result<(), WireError> {
    write_encoded(writer, &encode_frame(session_id, frame))
}

/// Write an already-encoded frame ([`encode_frame`], [`encode_submit`]) to
/// a stream and flush it: a client that may re-send encodes only once.
pub fn write_encoded(writer: &mut impl Write, bytes: &[u8]) -> Result<(), WireError> {
    writer.write_all(bytes).map_err(io_err)?;
    writer.flush().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_session() -> SessionRequest {
        SessionRequest {
            tip_states: vec![vec![0, 1, 2, crate::GAP_STATE], vec![3, 2, 1, 0]],
            pattern_weights: vec![1.0, 2.0, 1.0, 3.0],
            category_rates: vec![0.5, 1.5],
            category_weights: vec![0.5, 0.5],
            frequencies: vec![0.1, 0.2, 0.3, 0.4],
            eigen: Some((vec![1.0; 16], vec![2.0; 16], vec![0.0, -1.0, -2.0, -3.0])),
            matrices: vec![(0, 0.1), (1, 0.25)],
            operations: vec![
                Operation::new(2, 0, 0, 1, 1),
                Operation::new(3, 2, 0, 1, 1).with_scaling(3),
            ],
            root: BufferId(3),
            scaled: true,
            deadline: Some(Deadline::new(Duration::from_millis(250))),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every field of two sessions, `f64`s compared by bit pattern.
    fn assert_same_session(got: &SessionRequest, want: &SessionRequest) {
        assert_eq!(got.tip_states, want.tip_states);
        assert_eq!(bits(&got.pattern_weights), bits(&want.pattern_weights));
        assert_eq!(bits(&got.category_rates), bits(&want.category_rates));
        assert_eq!(bits(&got.category_weights), bits(&want.category_weights));
        assert_eq!(bits(&got.frequencies), bits(&want.frequencies));
        let eigen_bits = |s: &SessionRequest| {
            s.eigen
                .as_ref()
                .map(|(u, v, w)| (bits(u), bits(v), bits(w)))
        };
        assert_eq!(eigen_bits(got), eigen_bits(want));
        let matrix_bits = |s: &SessionRequest| {
            s.matrices
                .iter()
                .map(|&(i, t)| (i, t.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(matrix_bits(got), matrix_bits(want));
        assert_eq!(got.operations, want.operations);
        assert_eq!(got.root, want.root);
        assert_eq!(got.scaled, want.scaled);
        assert_eq!(got.deadline, want.deadline);
    }

    fn submit_bytes(session: &SessionRequest) -> Vec<u8> {
        encode_submit(5, Lane::Interactive, session)
    }

    fn decode_submit(bytes: &[u8]) -> SessionRequest {
        match decode_frame(bytes).expect("submit decodes") {
            (_, Frame::Submit { session, .. }, used) => {
                assert_eq!(used, bytes.len());
                *session
            }
            (_, other, _) => panic!("wrong frame type {other:?}"),
        }
    }

    /// A serve-nuc-shaped session: 64 nucleotide tips × 1,500 patterns, 4
    /// rate categories, a scaled 63-operation schedule.
    fn nucleotide_session(taxa: usize, patterns: usize) -> SessionRequest {
        SessionRequest {
            tip_states: (0..taxa)
                .map(|t| {
                    (0..patterns)
                        .map(|p| match (p * 7 + t * 13) % 41 {
                            0 => crate::GAP_STATE,
                            k => (k % 4) as u32,
                        })
                        .collect()
                })
                .collect(),
            pattern_weights: (0..patterns).map(|p| 1.0 + (p % 3) as f64).collect(),
            category_rates: vec![0.1, 0.5, 1.2, 2.2],
            category_weights: vec![0.25; 4],
            frequencies: vec![0.1, 0.2, 0.3, 0.4],
            eigen: Some((vec![0.5; 16], vec![0.25; 16], vec![0.0, -1.0, -2.0, -3.0])),
            matrices: (0..2 * taxa - 2).map(|m| (m, 0.01 * m as f64)).collect(),
            operations: (taxa..2 * taxa - 1)
                .map(|d| Operation::new(d, d - taxa, d - taxa, d - 1, d - 1).with_scaling(d))
                .collect(),
            root: BufferId(2 * taxa - 2),
            scaled: true,
            deadline: None,
        }
    }

    fn round_trip(frame: &Frame, sid: u64) -> (u64, Frame) {
        let bytes = encode_frame(sid, frame);
        let (got_sid, got, consumed) = decode_frame(&bytes).expect("round trip decodes");
        assert_eq!(consumed, bytes.len(), "frame must consume exactly itself");
        (got_sid, got)
    }

    #[test]
    fn submit_round_trips_bit_exactly() {
        let session = sample_session();
        let (sid, frame) = round_trip(
            &Frame::Submit {
                lane: Lane::Batch,
                session: Box::new(session.clone()),
            },
            42,
        );
        assert_eq!(sid, 42);
        let Frame::Submit { lane, session: got } = frame else {
            panic!("wrong frame type");
        };
        assert_eq!(lane, Lane::Batch);
        assert_same_session(&got, &session);
        assert_eq!(
            got.deadline.unwrap().budget(),
            Duration::from_millis(250),
            "per-request deadline must survive the wire"
        );
    }

    #[test]
    fn submit_from_a_borrowed_session_matches_the_boxed_frame() {
        let session = sample_session();
        let boxed = encode_frame(
            8,
            &Frame::Submit {
                lane: Lane::Batch,
                session: Box::new(session.clone()),
            },
        );
        assert_eq!(encode_submit(8, Lane::Batch, &session), boxed);
    }

    #[test]
    fn deadlines_round_trip_exactly() {
        for deadline in [
            None,
            Some(Deadline::new(Duration::ZERO)),
            Some(Deadline::new(Duration::from_nanos(500))),
            Some(Deadline::new(Duration::from_millis(10))),
        ] {
            let session = SessionRequest {
                deadline,
                ..sample_session()
            };
            let got = decode_submit(&submit_bytes(&session));
            assert_eq!(got.deadline, deadline, "deadline {deadline:?}");
        }
        // Budgets past u64 nanoseconds (~584 years) saturate.
        let forever = SessionRequest {
            deadline: Some(Deadline::new(Duration::MAX)),
            ..sample_session()
        };
        let got = decode_submit(&submit_bytes(&forever)).deadline.unwrap();
        assert_eq!(got.budget(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn tip_width_follows_the_content() {
        // Sample tips are 4 + 2 states, all narrow: tag + count + 1 byte each.
        let narrow = sample_session();
        let wide = SessionRequest {
            tip_states: vec![vec![0, 1, 2, crate::GAP_STATE], vec![3, 2, 255, 0]],
            ..sample_session()
        };
        let narrow_len = submit_bytes(&narrow).len();
        assert_eq!(submit_bytes(&wide).len(), narrow_len + 3 * 4);
        assert_same_session(&decode_submit(&submit_bytes(&wide)), &wide);
        assert_same_session(&decode_submit(&submit_bytes(&narrow)), &narrow);
    }

    #[test]
    fn size_hint_is_exact_for_narrow_sessions() {
        for session in [sample_session(), nucleotide_session(8, 100)] {
            assert_eq!(
                submit_bytes(&session).len(),
                HEADER_LEN + 1 + session_len_hint(&session)
            );
        }
    }

    #[test]
    fn serve_nuc_shaped_session_fits_in_120_kb() {
        let session = nucleotide_session(64, 1500);
        let bytes = submit_bytes(&session);
        assert!(bytes.len() <= 120_000, "{} bytes", bytes.len());
        assert_same_session(&decode_submit(&bytes), &session);
    }

    #[test]
    fn wire_v1_frames_get_a_typed_version_error() {
        let mut bytes = submit_bytes(&sample_session());
        bytes[4] = 1;
        assert_eq!(decode_frame(&bytes).unwrap_err(), WireError::BadVersion(1));
        assert_eq!(
            read_frame(&mut bytes.as_slice()).unwrap_err(),
            WireError::BadVersion(1)
        );
    }

    #[test]
    fn unknown_tip_width_is_malformed() {
        let mut bytes = submit_bytes(&sample_session());
        // Header, lane byte, tip count: then the first tip's width tag.
        let tag = HEADER_LEN + 1 + 4;
        assert_eq!(bytes[tag], TIP_U8);
        bytes[tag] = 2;
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::Malformed("unknown tip width")
        );
    }

    #[test]
    fn every_payload_truncation_of_a_narrowed_frame_is_typed() {
        // Cut the payload and patch the header to agree, so each cut lands
        // inside the session decoder (tip tags, narrowed states, the
        // deadline field) rather than at the frame-length check.
        let session = SessionRequest {
            tip_states: vec![vec![0, 3, crate::GAP_STATE], vec![], vec![300, 1]],
            deadline: Some(Deadline::new(Duration::from_nanos(500))),
            ..sample_session()
        };
        let full = submit_bytes(&session);
        for cut in HEADER_LEN..full.len() {
            let mut bytes = full[..cut].to_vec();
            let len = ((cut - HEADER_LEN) as u32).to_le_bytes();
            bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len);
            match decode_frame(&bytes) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// Random sessions: tips mixing narrow states, gaps, states ≥ 255 and
    /// empty vectors; every `f64` an arbitrary bit pattern (NaNs included).
    struct ArbSession;

    impl Strategy for ArbSession {
        type Value = SessionRequest;

        fn generate(&self, rng: &mut proptest::TestRng) -> SessionRequest {
            let f64s = |rng: &mut proptest::TestRng, max: usize| -> Vec<f64> {
                let n = rng.below(0, max + 1);
                (0..n).map(|_| f64::from_bits(rng.next_u64())).collect()
            };
            let tip = |rng: &mut proptest::TestRng| -> Vec<u32> {
                let n = rng.below(0, 40);
                let mixed = rng.below(0, 3);
                (0..n)
                    .map(|_| match (mixed, rng.below(0, 6)) {
                        (0, _) | (_, 0..=3) => rng.below(0, 255) as u32,
                        (_, 4) => crate::GAP_STATE,
                        _ => 255 + (rng.next_u64() % u64::from(u32::MAX - 255)) as u32,
                    })
                    .collect()
            };
            let index = |rng: &mut proptest::TestRng| rng.below(0, 1000);
            SessionRequest {
                tip_states: (0..rng.below(0, 8)).map(|_| tip(rng)).collect(),
                pattern_weights: f64s(rng, 20),
                category_rates: f64s(rng, 5),
                category_weights: f64s(rng, 5),
                frequencies: f64s(rng, 5),
                eigen: (rng.below(0, 2) == 1).then(|| (f64s(rng, 17), f64s(rng, 17), f64s(rng, 5))),
                matrices: (0..rng.below(0, 10))
                    .map(|_| (index(rng), f64::from_bits(rng.next_u64())))
                    .collect(),
                operations: (0..rng.below(0, 10))
                    .map(|_| Operation {
                        destination: index(rng),
                        dest_scale_write: (rng.below(0, 2) == 1).then(|| index(rng)),
                        child1: index(rng),
                        child1_matrix: index(rng),
                        child2: index(rng),
                        child2_matrix: index(rng),
                    })
                    .collect(),
                root: BufferId(index(rng)),
                scaled: rng.below(0, 2) == 1,
                deadline: (rng.below(0, 2) == 1)
                    .then(|| Deadline::new(Duration::from_nanos(rng.next_u64()))),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Submit frames round-trip every field bit for bit, whatever mix
        /// of narrow, gap, wide and empty tips they carry.
        #[test]
        fn submit_round_trips_any_session(session in ArbSession, batch in 0u8..2) {
            let lane = if batch == 1 { Lane::Batch } else { Lane::Interactive };
            let bytes = encode_submit(3, lane, &session);
            let (sid, frame, used) = decode_frame(&bytes).expect("decodes");
            prop_assert_eq!((sid, used), (3, bytes.len()));
            let Frame::Submit { lane: got_lane, session: got } = frame else {
                panic!("wrong frame type");
            };
            prop_assert_eq!(got_lane, lane);
            assert_same_session(&got, &session);
        }
    }

    #[test]
    fn result_preserves_bit_pattern() {
        // A likelihood with a messy mantissa — the exact bits must survive.
        let lnl = -12345.678901234567_f64;
        let (_, frame) = round_trip(&Frame::Result(lnl), 7);
        let Frame::Result(got) = frame else {
            panic!("wrong frame type");
        };
        assert_eq!(got.to_bits(), lnl.to_bits());
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = vec![
            BeagleError::OutOfRange {
                what: "partials buffer",
                index: 9,
                limit: 4,
            },
            BeagleError::DimensionMismatch {
                what: "tip partials",
                expected: 800,
                got: 400,
            },
            BeagleError::InvalidConfiguration("zero patterns".into()),
            BeagleError::NoImplementationFound,
            BeagleError::Unsupported("derivatives on CPU-serial".into()),
            BeagleError::NumericalFailure("NaN at root".into()),
            BeagleError::Device {
                kind: DeviceErrorKind::DeviceLost,
                transient: false,
                device: "Radeon".into(),
            },
            BeagleError::ResourceExhausted {
                what: "device memory".into(),
            },
            BeagleError::Timeout {
                what: "update_partials on Quadro".into(),
            },
            BeagleError::CheckpointCorrupt("hash mismatch".into()),
            BeagleError::CheckpointIo("disk full".into()),
            BeagleError::ChildCreationFailed {
                child: 1,
                device: "prefer=CUDA require=GPU".into(),
                source: Box::new(BeagleError::NoImplementationFound),
            },
        ];
        for e in errors {
            let (_, frame) = round_trip(&Frame::Error(e.clone()), 1);
            let Frame::Error(got) = frame else {
                panic!("wrong frame type");
            };
            assert_eq!(format!("{got}"), format!("{e}"), "error must survive");
        }
    }

    #[test]
    fn admin_frames_round_trip() {
        for (frame, sid) in [
            (Frame::StatsRequest, 1),
            (Frame::Stats("{\"pool\":{}}".into()), 2),
            (Frame::Drain, 3),
            (Frame::DrainAck { drained: true }, 4),
            (Frame::Busy(BusyReason::PoolFull), 5),
        ] {
            let (got_sid, got) = round_trip(&frame, sid);
            assert_eq!(got_sid, sid);
            assert_eq!(got.frame_type(), frame.frame_type());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes).unwrap_err(), WireError::BadVersion(99));
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        bytes[5] = 200;
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::UnknownFrameType(200)
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_frame(
            11,
            &Frame::Submit {
                lane: Lane::Interactive,
                session: Box::new(sample_session()),
            },
        );
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_claim_is_rejected_before_allocation() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        let huge = (MAX_PAYLOAD + 1).to_le_bytes();
        bytes[14..18].copy_from_slice(&huge);
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::Oversized {
                len: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD,
            }
        );
    }

    #[test]
    fn lying_interior_length_cannot_allocate() {
        // A Stats frame whose string claims 4 GiB but whose payload is tiny:
        // the length check must fire before the allocation.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(b"tiny");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(FrameType::Stats as u8);
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload_and_junk = encode_frame(1, &Frame::DrainAck { drained: false });
        // Grow the declared payload by one junk byte.
        payload_and_junk.push(0xAB);
        let len = 2u32.to_le_bytes();
        payload_and_junk[14..18].copy_from_slice(&len);
        assert_eq!(
            decode_frame(&payload_and_junk).unwrap_err(),
            WireError::Malformed("trailing bytes after payload")
        );
    }

    #[test]
    fn concatenated_frames_decode_sequentially() {
        let mut bytes = encode_frame(1, &Frame::Result(1.5));
        bytes.extend_from_slice(&encode_frame(2, &Frame::Drain));
        let (sid1, _, used) = decode_frame(&bytes).unwrap();
        let (sid2, _, _) = decode_frame(&bytes[used..]).unwrap();
        assert_eq!((sid1, sid2), (1, 2));
    }

    #[test]
    fn stream_round_trip_over_a_buffer() {
        let frame = Frame::Submit {
            lane: Lane::Interactive,
            session: Box::new(sample_session()),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, &frame).unwrap();
        let (sid, got) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(sid, 9);
        assert_eq!(got.frame_type(), FrameType::Submit);
        // A drained stream reports a clean close, not truncation.
        assert_eq!(
            read_frame(&mut [].as_slice()).unwrap_err(),
            WireError::Closed
        );
    }
}
