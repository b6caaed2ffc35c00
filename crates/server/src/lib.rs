//! # beagle-server
//!
//! Likelihood-as-a-service for BEAGLE-RS: a std-only (no async runtime)
//! framed binary RPC layer that exposes a [`beagle_core::pool`] instance
//! fleet over TCP and/or Unix-domain sockets.
//!
//! The wire protocol (WIRE-v2) lives in [`beagle_core::wire`]: versioned,
//! length-prefixed frames carrying self-contained
//! [`beagle_core::SessionRequest`]s with every `f64` as a raw bit pattern,
//! so a remote evaluation is **bit-identical** to the same session run
//! in-process. See DESIGN.md §13 for the frame layout and thread model.
//!
//! * [`Server`] / [`ServerBuilder`] — the service: acceptor thread per
//!   listener, handler thread per connection, per-client admission control
//!   ([`beagle_core::wire::BusyReason`]), per-request deadline propagation
//!   into the pool's watchdog, graceful drain.
//! * [`Client`] — blocking caller with reconnect-and-resend backoff and
//!   typed [`ClientError`]s mirroring [`beagle_core::BeagleError`].
//! * [`Endpoint`] — `tcp://addr` or `unix://path`.

mod client;
mod net;
mod server;

pub use client::{Client, ClientError};
pub use net::Endpoint;
pub use server::{Server, ServerBuilder};
