//! # `ptk-serve` — the resident PT-k query daemon
//!
//! Interactive exploration of PT-k answers (re-running a query while
//! sweeping `k` or the threshold) pays the dominant cost — loading and
//! ranking the run file — on every CLI invocation. This crate amortises it:
//! load once, serve the existing SQL dialect over a minimal HTTP/1.1 + JSON
//! surface on `std::net`, and route every statement through the same
//! `PtkPlan`/`PtkExecutor` pipeline as the one-shot CLI so concurrent
//! answers stay bit-identical to `ptk sql` output.
//!
//! The pieces:
//!
//! * [`http`] — a deliberately tiny HTTP/1.1 codec (one request per
//!   connection, `Content-Length` framing, structured JSON errors);
//! * [`cache`] — the result cache keyed on the exact statement text with
//!   FIFO eviction;
//! * [`server`] — the daemon: bounded admission queue feeding workers on
//!   the `ptk-par` pool, per-request timeouts (`408`), queue-overflow
//!   rejection (`429`), `/sql` `/metrics` `/health` `/shutdown` routing,
//!   disconnect-tolerant response writing, and an always-on query flight
//!   recorder behind `GET /debug/queries` / `/debug/pool` /
//!   `/debug/config`, with per-request latency percentiles on `/metrics`
//!   and an opt-in slow-query log.
//!
//! The daemon is generic over a [`QueryHandler`]; the `ptk` CLI supplies
//! the implementation that owns the loaded snapshot and the SQL front-end,
//! keeping this crate zero-dependency beyond the workspace's own
//! observability and scheduling crates. The handler's execution returns
//! each body with whether it is timing-free, which is all the cache needs:
//! a timing-free body is stored under its statement text.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod http;
pub mod server;

pub use cache::ResultCache;
pub use http::{error_body, json_escape, Request};
pub use server::{counters, QueryHandler, Server, ServerConfig, ServerHandle};
