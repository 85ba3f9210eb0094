//! # hac-net — HAC name spaces over real TCP
//!
//! The paper's §3 semantic mount points attach *remote* query systems;
//! everything in `hac-remote` simulates them in-process. This crate makes
//! the remote side real:
//!
//! * [`wire`] — a length-prefixed binary protocol with one version
//!   (persist-coded requests, compact-coded responses, request ids for
//!   pipelining) covering the full
//!   [`RemoteQuerySystem`](hac_core::RemoteQuerySystem) surface — `search`,
//!   `fetch` — plus a `ping`/`capabilities` handshake;
//! * [`server::HacServer`] — exports registered backends (including a
//!   whole local `HacFs` via `hac_remote::RemoteHac`) over
//!   `std::net::TcpListener` with a bounded worker pool, per-connection
//!   read/write deadlines, and graceful shutdown;
//! * [`client::NetRemote`] — a TCP client that itself implements
//!   `RemoteQuerySystem`, so a *networked* mount drops into the existing
//!   semantic-mount machinery unchanged. Connection pool, per-request
//!   deadlines, and capped-exponential retry with jitter via the shared
//!   [`RetryPolicy`](hac_core::RetryPolicy);
//! * [`chaos::ChaosProxy`] — a TCP fault injector (latency, refused
//!   connections, truncation, garbling) for the robustness tests.
//!
//! Failure taxonomy: every transport-level problem is mapped onto
//! [`RemoteError`](hac_core::RemoteError), so scope evaluation degrades
//! exactly as it does for a simulated mount — previously imported results
//! are kept, errors are surfaced in metrics, nothing panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod server;
pub mod wire;

pub use chaos::{ChaosMode, ChaosProxy};
pub use client::{ClientConfig, NetRemote};
pub use server::{HacServer, LoopStats, ServerConfig};
pub use wire::{
    Request, RequestBody, Response, ResponseBody, TraceContext, WireError, PROTOCOL_VERSION,
};
