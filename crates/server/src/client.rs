//! Blocking client for the likelihood service: one request in flight at a
//! time, reconnect-with-backoff on transport failure, typed errors
//! mirroring [`BeagleError`] across the wire.

use beagle_core::health::{backoff, MAX_RETRIES};
use beagle_core::wire::{self, BusyReason, Frame};
use beagle_core::{BeagleError, Lane, SessionRequest, WireError};

use crate::net::{Endpoint, Stream};

/// What a remote evaluation can fail with, from the client's perspective.
#[derive(Debug)]
pub enum ClientError {
    /// The server refused the session without running it; retry later.
    Busy(BusyReason),
    /// The session ran (or was admitted) and failed with a library error —
    /// the same typed [`BeagleError`] an in-process evaluation returns.
    Remote(BeagleError),
    /// The byte stream failed to decode as WIRE-v2.
    Wire(WireError),
    /// Transport failure after all reconnect attempts.
    Io(String),
    /// The server answered with something the protocol does not allow
    /// here.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy(reason) => write!(f, "server busy: {reason}"),
            ClientError::Remote(e) => write!(f, "remote evaluation failed: {e}"),
            ClientError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ClientError::Io(msg) => write!(f, "transport failed: {msg}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    fn from_wire(e: WireError) -> Self {
        match e {
            WireError::Io(msg) => ClientError::Io(msg),
            WireError::Closed => ClientError::Io("connection closed by server".into()),
            other => ClientError::Wire(other),
        }
    }

    /// Transport failures are worth a reconnect; everything else is not.
    fn is_transient(&self) -> bool {
        matches!(self, ClientError::Io(_))
    }
}

/// A blocking connection to a likelihood service.
///
/// The client keeps **one request in flight**: each call writes a frame and
/// blocks for the matching reply. On transport failure it reconnects with
/// the library's exponential full-jitter [`backoff`], up to [`MAX_RETRIES`]
/// times, and re-sends. Re-sending is safe because
/// evaluation is pure — the worst case is the server computing a session
/// twice, never a different answer.
pub struct Client {
    endpoint: Endpoint,
    stream: Option<Stream>,
    next_session: u64,
    jitter_state: u64,
}

impl Client {
    /// Connect to `endpoint`, retrying a refused connection with backoff.
    pub fn connect(endpoint: Endpoint) -> Result<Self, ClientError> {
        let mut client = Client {
            endpoint,
            stream: None,
            next_session: 1,
            jitter_state: 0x9e37_79b9_7f4a_7c15,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// The endpoint this client talks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Evaluate a session remotely. Bit-identical to evaluating the same
    /// session on a local pool of the same implementation.
    pub fn evaluate(&mut self, session: &SessionRequest, lane: Lane) -> Result<f64, ClientError> {
        let reply = self.roundtrip(|sid| wire::encode_submit(sid, lane, session))?;
        match reply {
            Frame::Result(lnl) => Ok(lnl),
            Frame::Busy(reason) => Err(ClientError::Busy(reason)),
            Frame::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Protocol("unexpected reply to Submit")),
        }
    }

    /// [`Self::evaluate`], but wait out transient `Busy(ClientCap)` /
    /// `Busy(PoolFull)` rejections with backoff, up to `max_busy_retries`
    /// additional attempts. `Busy(Draining)` is returned immediately — a
    /// draining server will not come back.
    pub fn evaluate_patiently(
        &mut self,
        session: &SessionRequest,
        lane: Lane,
        max_busy_retries: u32,
    ) -> Result<f64, ClientError> {
        let mut attempt = 0;
        loop {
            match self.evaluate(session, lane) {
                Err(ClientError::Busy(BusyReason::ClientCap | BusyReason::PoolFull))
                    if attempt < max_busy_retries =>
                {
                    attempt += 1;
                    std::thread::sleep(backoff(attempt, &mut self.jitter_state));
                }
                other => return other,
            }
        }
    }

    /// Fetch the server's `StatsSnapshot` JSON (server counters, pool
    /// scheduler stats including rejections, kernel statistics, breaker
    /// states).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(|sid| wire::encode_frame(sid, &Frame::StatsRequest))? {
            Frame::Stats(json) => Ok(json),
            _ => Err(ClientError::Protocol("unexpected reply to StatsRequest")),
        }
    }

    /// Ask the server to drain: it answers all in-flight sessions, acks,
    /// and closes every connection. Returns whether the drain completed
    /// fully.
    pub fn drain(&mut self) -> Result<bool, ClientError> {
        match self.roundtrip(|sid| wire::encode_frame(sid, &Frame::Drain))? {
            Frame::DrainAck { drained } => Ok(drained),
            _ => Err(ClientError::Protocol("unexpected reply to Drain")),
        }
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..=MAX_RETRIES {
            if attempt > 0 {
                std::thread::sleep(backoff(attempt, &mut self.jitter_state));
            }
            match Stream::connect(&self.endpoint) {
                Ok(stream) => {
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(format!(
            "connect {}: {}",
            self.endpoint,
            last.map(|e| e.to_string()).unwrap_or_default()
        )))
    }

    /// Send one request, encoded once by `encode` under a fresh session id
    /// and re-sent as-is on every reconnect attempt.
    fn roundtrip(&mut self, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<Frame, ClientError> {
        let sid = self.next_session;
        self.next_session += 1;
        let request = encode(sid);
        let mut last: Option<ClientError> = None;
        for attempt in 0..=MAX_RETRIES {
            if attempt > 0 {
                std::thread::sleep(backoff(attempt, &mut self.jitter_state));
            }
            match self.try_roundtrip(sid, &request) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_transient() => {
                    // Drop the broken stream; the next attempt reconnects
                    // and re-sends (safe: evaluation is pure).
                    self.stream = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("retries exhausted")))
    }

    fn try_roundtrip(&mut self, sid: u64, request: &[u8]) -> Result<Frame, ClientError> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("just connected");
        wire::write_encoded(stream, request).map_err(ClientError::from_wire)?;
        let (reply_sid, reply) = wire::read_frame(stream).map_err(ClientError::from_wire)?;
        if reply_sid != sid {
            // One in flight + a fresh stream per attempt: a mismatch can
            // only be a server bug, not a stale reply.
            return Err(ClientError::Protocol("reply session id mismatch"));
        }
        Ok(reply)
    }
}
